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
SweepRunner::runGroup(const std::vector<SweepCell> &cells,
                      const std::vector<size_t> &indices,
                      std::vector<CellResult> &out)
{
    auto t0 = std::chrono::steady_clock::now();
    // Resolving inputs goes through the shared cache (thread-safe,
    // build-once), so concurrent groups over one workload still
    // trace it exactly once.
    std::vector<PreparedRun> runs;
    runs.reserve(indices.size());
    for (size_t i : indices) {
        Session session =
            Session::open(cells[i].workload, cells[i].scale, _cache);
        runs.push_back(
            session.prepare(cells[i].source, cells[i].label));
    }
    std::vector<BatchItem> items;
    items.reserve(runs.size());
    for (const PreparedRun &r : runs)
        items.push_back(r.item());
    std::vector<TimingResult> results = TimingSim::runBatch(
        cells[indices.front()].config, items);
    // Machines of one batch interleave, so per-cell wall time is
    // only meaningful as the group average.
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count() /
        double(indices.size());
    for (size_t k = 0; k < indices.size(); ++k) {
        CellResult &cr = out[indices[k]];
        cr.sim = std::move(results[k]);
        cr.wallSeconds = wall;
        cr.source = std::move(runs[k].source);
    }
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

std::vector<CellResult>
SweepRunner::run(const std::vector<SweepCell> &cells, bool report)
{
    std::vector<CellResult> results(cells.size());
    auto t0 = std::chrono::steady_clock::now();
    // Group cells sharing a (workload, scale, MachineConfig) — in
    // cell order — chunk each group into batches of at most
    // _batchWidth machines, and run the batches on the pool. A batch
    // legally needs only a common config, but machines over one
    // shared trace also share its read-only working set (trace,
    // indexes, hint tables), which is where the stage-major loop's
    // cache locality comes from; batching machines over *different*
    // multi-MB traces thrashes the LLC instead (docs/PERFORMANCE.md).
    // Results land at their original indices, so downstream printing
    // is unchanged.
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &c = cells[i];
        auto g = std::find_if(
            groups.begin(), groups.end(), [&](const auto &group) {
                const SweepCell &k = cells[group.front()];
                return k.workload == c.workload &&
                    k.scale == c.scale && k.config == c.config;
            });
        if (g == groups.end())
            g = groups.emplace(groups.end());
        g->push_back(i);
    }
    std::vector<std::vector<size_t>> batches;
    for (const std::vector<size_t> &g : groups) {
        for (size_t off = 0; off < g.size();
             off += size_t(_batchWidth)) {
            size_t end =
                std::min(g.size(), off + size_t(_batchWidth));
            batches.emplace_back(g.begin() + long(off),
                                 g.begin() + long(end));
        }
    }
    parallelFor(batches.size(), [&](size_t b) {
        runGroup(cells, batches[b], results);
    });
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

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
                     "[sweep] %zu cells on %d job(s) x batch width "
                     "%d: %.3fs wall (%.3fs in cells), %.0f "
                     "simulated instrs/sec\n",
                     cells.size(), _jobs, _batchWidth, wall,
                     cellSeconds,
                     wall > 0 ? double(instrs) / wall : 0.0);
        // Cache-tier accounting: the warm-cache CI job greps for
        // "cache: 0 traces built" on a second run, so keep the
        // phrase stable.
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

std::optional<SourceSpec>
sourceSpecByName(const std::string &policy)
{
    if (policy == "superscalar")
        return SourceSpec::baseline();
    if (policy == "loop")
        return SourceSpec::statics(SpawnPolicy::loop());
    if (policy == "loopFT")
        return SourceSpec::statics(SpawnPolicy::loopFT());
    if (policy == "procFT")
        return SourceSpec::statics(SpawnPolicy::procFT());
    if (policy == "hammock")
        return SourceSpec::statics(SpawnPolicy::hammock());
    if (policy == "other")
        return SourceSpec::statics(SpawnPolicy::other());
    if (policy == "postdoms")
        return SourceSpec::statics(SpawnPolicy::postdoms());
    if (policy == "rec_pred")
        return SourceSpec::recon();
    if (policy == "dmt")
        return SourceSpec::dmt();
    return std::nullopt;
}

namespace {

/** Strict positive int (at most 4096) from @p text, or exit 2 with
 *  an error naming the knob @p what. */
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

/** A count knob: `flag N` or `flag=N` in argv, else the environment
 *  variable @p env, else @p fallback. */
int
countKnob(int argc, char **argv, const char *flag, const char *env,
          int fallback)
{
    const size_t len = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, flag) == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value\n", flag);
                std::exit(2);
            }
            return parseCount(flag, argv[i + 1]);
        }
        if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=')
            return parseCount(flag, arg + len + 1);
    }
    if (const char *text = std::getenv(env))
        return parseCount(env, text);
    return fallback;
}

int
hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

int
defaultJobs()
{
    return countKnob(0, nullptr, "--jobs", "PF_BENCH_JOBS",
                     hardwareJobs());
}

int
jobsFromArgs(int argc, char **argv)
{
    return countKnob(argc, argv, "--jobs", "PF_BENCH_JOBS",
                     hardwareJobs());
}

int
defaultBatchWidth()
{
    return countKnob(0, nullptr, "--batch", "PF_BENCH_BATCH", 8);
}

int
batchWidthFromArgs(int argc, char **argv)
{
    return countKnob(argc, argv, "--batch", "PF_BENCH_BATCH", 8);
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

} // namespace polyflow::driver
