#include "driver/sweep.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "driver/session.hh"
#include "isa/functional_sim.hh"

namespace polyflow::driver {

namespace {

/** Cache key for a (name, scale) pair; exact round-trip of the
 *  double so distinct scales never collide. */
std::string
scaleKey(const std::string &name, double scale)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", scale);
    return name + "@" + buf;
}

} // namespace

std::shared_ptr<const Workload>
SweepCache::workload(const std::string &name, double scale)
{
    return _workloads.getOrBuild(scaleKey(name, scale), [&] {
        ++_workloadsBuilt;
        return std::make_shared<const Workload>(
            buildWorkload(name, scale));
    });
}

std::shared_ptr<const Workload>
SweepCache::adopt(Workload w, double scale)
{
    std::string key = scaleKey(w.name, scale);
    return _workloads.getOrBuild(key, [&] {
        ++_workloadsBuilt;
        return std::make_shared<const Workload>(std::move(w));
    });
}

std::shared_ptr<const TracedWorkload>
SweepCache::traced(const std::string &name, double scale)
{
    return _traced.getOrBuild(scaleKey(name, scale), [&] {
        // The trace stores a pointer into the workload's linked
        // program, so trace only the cached (address-stable) copy.
        std::shared_ptr<const Workload> w = workload(name, scale);
        auto tw = std::make_shared<TracedWorkload>();
        tw->workload = w;
        // Store tier first: a validated hit skips the functional
        // run entirely (tracesBuilt stays untouched).
        if (_store) {
            if (auto t = _store->loadTrace(name, scale, w->prog)) {
                tw->trace = std::move(*t);
                return std::shared_ptr<const TracedWorkload>(
                    std::move(tw));
            }
        }
        FunctionalOptions opt;
        opt.recordTrace = true;
        FunctionalResult r = runFunctional(w->prog, opt);
        if (!r.halted)
            throw std::runtime_error(name + ": did not halt");
        ++_tracesBuilt;
        tw->trace = std::move(r.trace);
        if (_store)
            _store->saveTrace(name, scale, w->prog, tw->trace);
        return std::shared_ptr<const TracedWorkload>(std::move(tw));
    });
}

std::shared_ptr<const TraceIndex>
SweepCache::traceIndex(const std::string &name, double scale)
{
    return _indexes.getOrBuild(scaleKey(name, scale), [&] {
        auto tw = traced(name, scale);
        auto idx = std::make_shared<const TraceIndex>(tw->trace);
        return idx;
    });
}

std::shared_ptr<const SpawnAnalysis>
SweepCache::analysis(const std::string &name, double scale)
{
    return _analyses.getOrBuild(scaleKey(name, scale), [&] {
        auto w = workload(name, scale);
        if (_store) {
            if (auto pts = _store->loadAnalysisPoints(name, scale,
                                                      w->prog)) {
                return std::make_shared<const SpawnAnalysis>(
                    std::move(*pts));
            }
        }
        ++_analysesBuilt;
        auto sa = std::make_shared<const SpawnAnalysis>(*w->module,
                                                        w->prog);
        if (_store)
            _store->saveAnalysisPoints(name, scale, w->prog,
                                       sa->points());
        return sa;
    });
}

std::shared_ptr<const HintTable>
SweepCache::hints(const std::string &name, double scale,
                  const SpawnPolicy &policy)
{
    std::string key = scaleKey(name, scale) + "#" +
        std::to_string(policy.kindMask);
    return _hints.getOrBuild(key, [&] {
        auto w = workload(name, scale);
        if (_store) {
            if (auto pts = _store->loadHintPoints(
                    name, scale, w->prog, policy.kindMask)) {
                return std::make_shared<const HintTable>(*pts);
            }
        }
        auto sa = analysis(name, scale);
        ++_hintTablesBuilt;
        auto ht = std::make_shared<const HintTable>(*sa, policy);
        if (_store)
            _store->saveHintPoints(name, scale, w->prog,
                                   policy.kindMask, ht->points());
        return ht;
    });
}

SweepRunner::SweepRunner(int jobs, int batchWidth)
    : _jobs(jobs > 0 ? jobs : defaultJobs()),
      _batchWidth(batchWidth > 0 ? batchWidth : defaultBatchWidth()),
      _cache(std::make_shared<SweepCache>())
{
    _cache->attachStore(store::ArtifactStore::openFromEnv());
}

void
SweepRunner::parallelFor(size_t n,
                         const std::function<void(size_t)> &fn)
{
    size_t workers =
        std::min<size_t>(static_cast<size_t>(_jobs), n);
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::mutex errMutex;
    size_t errIndex = n;
    std::exception_ptr error;

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (i < errIndex) {
                    errIndex = i;
                    error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

namespace {

/**
 * Host time per trace instruction of a cell, by spawn-source kind,
 * relative to the superscalar baseline. Measured on perfbench's
 * lineup grid (12 workloads x 9 sources, scale 0.1) through this
 * runner at one job: the sum of CellResult::wallSeconds over the sum
 * of instructions, per kind (-O2, 4-core x86-64 host; superscalar
 * about 120 ns per instruction). perfbench's traced
 * sim.source.*_ns_per_cycle figures rank the kinds the same way but
 * compress the gaps, because its stage probe adds a fixed cost per
 * cycle. Only the ranking matters, so one decimal is enough.
 */
double
costWeight(SourceSpec::Kind kind)
{
    switch (kind) {
      case SourceSpec::Kind::Baseline: return 1.0;
      case SourceSpec::Kind::Static: return 1.6;
      case SourceSpec::Kind::Recon: return 2.0;
      case SourceSpec::Kind::Dmt: return 1.8;
    }
    return 1.0;
}

} // namespace

std::vector<size_t>
costOrder(const std::vector<SweepCell> &cells,
          const std::vector<size_t> &traceLengths)
{
    auto cost = [&](size_t i) {
        return double(traceLengths[i]) *
            costWeight(cells[i].source.kind);
    };
    std::vector<size_t> order(cells.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return cost(a) > cost(b);
                     });
    return order;
}

std::vector<CellResult>
SweepRunner::run(const std::vector<SweepCell> &cells, bool report)
{
    using Clock = std::chrono::steady_clock;
    std::vector<CellResult> results(cells.size());
    auto t0 = Clock::now();

    // Resolve each distinct (workload, scale) trace once, in
    // parallel; its length prices the cells that replay it. A trace
    // that fails to build prices its cells at zero, and each of
    // them then fails as its own cell below.
    auto sameTrace = [&](size_t a, size_t b) {
        return cells[a].workload == cells[b].workload &&
            cells[a].scale == cells[b].scale;
    };
    std::vector<size_t> firstCell;  // one cell per distinct trace
    for (size_t i = 0; i < cells.size(); ++i) {
        if (std::none_of(firstCell.begin(), firstCell.end(),
                         [&](size_t j) { return sameTrace(i, j); }))
            firstCell.push_back(i);
    }
    std::vector<size_t> length(cells.size(), 0);
    parallelFor(firstCell.size(), [&](size_t t) {
        const size_t f = firstCell[t];
        size_t n = 0;
        try {
            n = _cache->traced(cells[f].workload, cells[f].scale)
                    ->trace.size();
        } catch (...) {
        }
        for (size_t i = f; i < cells.size(); ++i) {
            if (sameTrace(i, f))
                length[i] = n;
        }
    });

    // Workers claim _batchWidth consecutive cells of the cost order
    // at a time. Every cell runs, and failures are kept per cell.
    const std::vector<size_t> order = costOrder(cells, length);
    const size_t width = size_t(_batchWidth);
    std::vector<std::exception_ptr> errors(cells.size());
    parallelFor((order.size() + width - 1) / width, [&](size_t k) {
        const size_t end = std::min(order.size(), (k + 1) * width);
        for (size_t pos = k * width; pos < end; ++pos) {
            const size_t i = order[pos];
            const SweepCell &c = cells[i];
            CellResult &r = results[i];
            auto start = Clock::now();
            try {
                RunOptions opt;
                opt.sourceOut = &r.source;
                r.sim = Session::open(c.workload, c.scale, _cache)
                            .simulate(RunSpec{c.label, c.source, c.config},
                                      opt);
            } catch (...) {
                errors[i] = std::current_exception();
            }
            r.wallSeconds =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
        }
    });
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    if (report) {
        std::uint64_t instrs = 0;
        double cellSeconds = 0;
        for (size_t i = 0; i < cells.size(); ++i) {
            instrs += results[i].sim.instrs;
            cellSeconds += results[i].wallSeconds;
            std::fprintf(stderr,
                         "[sweep] %3zu/%zu %-10s %-24s %8.3fs "
                         "%10llu instrs\n",
                         i + 1, cells.size(),
                         cells[i].workload.c_str(),
                         cells[i].label.c_str(),
                         results[i].wallSeconds,
                         static_cast<unsigned long long>(
                             results[i].sim.instrs));
        }
        std::fprintf(stderr,
                     "[sweep] %zu cells on %d job(s): %.3fs wall "
                     "(%.3fs in cells), %.0f simulated instrs/sec\n",
                     cells.size(), _jobs, wall, cellSeconds,
                     wall > 0 ? double(instrs) / wall : 0.0);
        // Cache-tier accounting: the warm-cache CI job greps for
        // "cache: 0 traces built, 0 analyses built, 0 hint tables
        // built" on a second run, so keep the phrase stable.
        const auto &st = _cache->store();
        std::fprintf(stderr,
                     "[sweep] cache: %d traces built, %d analyses "
                     "built, %d hint tables built; store %s: "
                     "%d hits, %d misses\n",
                     _cache->tracesBuilt(), _cache->analysesBuilt(),
                     _cache->hintTablesBuilt(),
                     st ? st->root().string().c_str() : "(disabled)",
                     st ? st->hits() : 0, st ? st->misses() : 0);
    }
    return results;
}

int
parseCount(const char *what, const char *text)
{
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || v < 1 ||
        v > 4096) {
        std::fprintf(stderr,
                     "%s: expected a positive integer, got \"%s\"\n",
                     what, text);
        std::exit(2);
    }
    return static_cast<int>(v);
}

int
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

int
jobsFromArgs(int argc, char **argv)
{
    const char *flag = "--jobs";
    const size_t len = std::strlen(flag);
    int jobs = defaultJobs();
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, flag) == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value\n", flag);
                std::exit(2);
            }
            jobs = parseCount(flag, argv[++i]);
        } else if (std::strncmp(arg, flag, len) == 0 &&
                   arg[len] == '=') {
            jobs = parseCount(flag, arg + len + 1);
        } else {
            std::fprintf(stderr,
                         "unknown argument \"%s\" (expected %s N or "
                         "%s=N)\n",
                         arg, flag, flag);
            std::exit(2);
        }
    }
    return jobs;
}

int
defaultBatchWidth()
{
    return 1;
}

std::optional<double>
parsePositiveDouble(const char *text)
{
    if (!text || *text == '\0')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' ||
        !std::isfinite(v) || v <= 0.0) {
        return std::nullopt;
    }
    return v;
}

double
parseScale(const char *what, const char *text)
{
    if (auto v = parsePositiveDouble(text))
        return *v;
    std::fprintf(stderr,
                 "%s: expected a finite positive number, got \"%s\"\n",
                 what, text);
    std::exit(2);
}

std::string
parseWorkload(const char *text)
{
    const std::vector<std::string> &names = allWorkloadNames();
    if (std::find(names.begin(), names.end(), text) != names.end())
        return text;
    std::fprintf(stderr, "unknown workload: %s\n", text);
    std::exit(2);
}

double
scaleFromEnv(double fallback)
{
    const char *text = std::getenv("PF_BENCH_SCALE");
    return text ? parseScale("PF_BENCH_SCALE", text) : fallback;
}

} // namespace polyflow::driver
