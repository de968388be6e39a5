#include "workload.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "isa/functional_sim.hh"
#include "polyflow.hh"
#include "spans.hh"
#include "stats/export.hh"

namespace pfbench {

using namespace polyflow;
using driver::SourceSpec;
using driver::SweepCell;

std::optional<WorkloadKind>
workloadByName(const std::string &name)
{
    for (WorkloadKind k :
         {WorkloadKind::LineupSerial, WorkloadKind::LineupParallel,
          WorkloadKind::ColdPipeline}) {
        if (name == workloadName(k))
            return k;
    }
    return std::nullopt;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::LineupSerial: return "lineup-serial";
      case WorkloadKind::LineupParallel: return "lineup-parallel";
      case WorkloadKind::ColdPipeline: return "cold-pipeline";
    }
    return "?";
}

const std::vector<SpawnPolicy> &
staticPolicies()
{
    static const std::vector<SpawnPolicy> policies = {
        SpawnPolicy::loop(),    SpawnPolicy::loopFT(),
        SpawnPolicy::procFT(),  SpawnPolicy::hammock(),
        SpawnPolicy::other(),   SpawnPolicy::postdoms(),
    };
    return policies;
}

std::vector<SweepCell>
lineupCells(double scale)
{
    std::vector<SweepCell> cells;
    for (const std::string &name : allWorkloadNames()) {
        cells.push_back({name, scale, SourceSpec::baseline(),
                         MachineConfig::superscalar(), "superscalar"});
        for (const SpawnPolicy &p : staticPolicies())
            cells.push_back({name, scale, SourceSpec::statics(p),
                             MachineConfig{}, p.name});
        cells.push_back({name, scale, SourceSpec::recon(),
                         MachineConfig{}, "rec_pred"});
        cells.push_back({name, scale, SourceSpec::dmt(), MachineConfig{},
                         "dmt"});
    }
    return cells;
}

std::vector<SweepCell>
coldCells(double scale)
{
    std::vector<SweepCell> cells;
    for (const std::string &name : allWorkloadNames())
        cells.push_back({name, scale, SourceSpec::baseline(),
                         MachineConfig::superscalar(), "superscalar"});
    return cells;
}

std::vector<size_t>
declarationOrder(size_t n, std::uint64_t seed, int rep)
{
    // Repetition k shuffles with the k-th draw of a generator seeded
    // by the run's seed.
    std::mt19937_64 seeds(seed);
    seeds.discard(static_cast<unsigned long long>(rep));
    std::mt19937_64 rng(seeds());
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[size_t(rng() % i)]);
    return order;
}

const char *
sourceKindName(const SourceSpec &s)
{
    switch (s.kind) {
      case SourceSpec::Kind::Baseline: return "superscalar";
      case SourceSpec::Kind::Static: return "static";
      case SourceSpec::Kind::Recon: return "rec_pred";
      case SourceSpec::Kind::Dmt: return "dmt";
    }
    return "?";
}

std::vector<std::vector<size_t>>
sweepBatches(const std::vector<SweepCell> &cells, int width,
             bool splitBySource)
{
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < cells.size(); ++i) {
        auto same = [&](const std::vector<size_t> &g) {
            const SweepCell &a = cells[g.front()];
            const SweepCell &b = cells[i];
            return a.workload == b.workload && a.scale == b.scale &&
                a.config == b.config &&
                (!splitBySource || a.source.kind == b.source.kind);
        };
        auto g = std::find_if(groups.begin(), groups.end(), same);
        if (g == groups.end())
            groups.push_back({i});
        else
            g->push_back(i);
    }
    std::vector<std::vector<size_t>> batches;
    const size_t w = size_t(std::max(width, 1));
    for (const std::vector<size_t> &g : groups) {
        for (size_t off = 0; off < g.size(); off += w)
            batches.emplace_back(
                g.begin() + long(off),
                g.begin() + long(std::min(g.size(), off + w)));
    }
    return batches;
}

double
batchOccupancy(const std::vector<std::vector<size_t>> &batches,
               const std::vector<TimingResult> &results)
{
    double live = 0, slots = 0;
    for (const std::vector<size_t> &b : batches) {
        std::uint64_t longest = 0;
        for (size_t i : b) {
            live += double(results[i].cycles);
            longest = std::max(longest, results[i].cycles);
        }
        slots += double(longest) * double(b.size());
    }
    return slots > 0 ? live / slots : 0.0;
}

std::vector<Metric>
modelMetrics(const std::vector<SweepCell> &cells,
             const std::vector<TimingResult> &results)
{
    std::map<std::string, const TimingResult *> base;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].source.kind == SourceSpec::Kind::Baseline)
            base[cells[i].workload] = &results[i];
    }
    double ipc = 0;
    for (const auto &[name, r] : base)
        ipc += r->ipc();

    std::map<std::string, std::pair<double, int>> speedup;
    std::array<double, numSlotBuckets> slots{};
    double slotTotal = 0, spawns = 0, violations = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const TimingResult &r = results[i];
        const std::string &label = cells[i].label;
        if (label == "postdoms" || label == "rec_pred" || label == "dmt") {
            auto &[sum, n] = speedup[label];
            sum += r.speedupOver(*base.at(cells[i].workload));
            ++n;
        }
        for (int b = 0; b < numSlotBuckets; ++b)
            slots[size_t(b)] += double(r.slots[size_t(b)]);
        slotTotal += double(r.slotTotal());
        spawns += double(r.spawns);
        violations += double(r.violations);
    }
    auto slotPct = [&](SlotBucket b) {
        return slotTotal > 0
            ? 100.0 * slots[size_t(b)] / slotTotal
            : 0.0;
    };
    std::vector<Metric> m;
    m.push_back({"model.ipc.superscalar",
                 base.empty() ? 0 : ipc / double(base.size()),
                 "instr/cycle"});
    // Zero on a grid without the source (the cold workload).
    for (const char *label : {"postdoms", "rec_pred", "dmt"}) {
        auto it = speedup.find(label);
        m.push_back({std::string("model.speedup_pct.") + label,
                     it == speedup.end()
                         ? 0
                         : it->second.first / it->second.second,
                     "%"});
    }
    m.push_back({"model.slots.committed_pct",
                 slotPct(SlotBucket::Committed), "%"});
    m.push_back({"model.slots.divert_wait_pct",
                 slotPct(SlotBucket::DivertWait), "%"});
    m.push_back({"model.slots.drain_pct", slotPct(SlotBucket::Drain), "%"});
    m.push_back({"model.spawns", spawns, "count"});
    m.push_back({"model.violations", violations, "count"});
    return m;
}

Plan
makePlan(WorkloadKind kind, double scale, std::uint64_t seed,
         const Reference *reference)
{
    Plan p;
    p.kind = kind;
    p.scale = scale;
    p.seed = seed;
    p.reference = reference;
    // One core stays free for the rest of the host: a worker that
    // shares its core with anything else sets the sweep's makespan,
    // and on a 4-core host that made sweep_s three times as noisy.
    unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    p.jobs = kind == WorkloadKind::LineupParallel
        ? int(std::min(hw - 1, 4u))
        : 1;
    p.batchWidth = driver::defaultBatchWidth();
    p.cells = p.cold() ? coldCells(scale) : lineupCells(scale);
    return p;
}

namespace {

double
seconds(std::int64_t fromNs, std::int64_t toNs)
{
    return double(toNs - fromNs) * 1e-9;
}

/** plan.cells in the declaration order of repetition @p rep. */
std::vector<SweepCell>
declared(const Plan &plan, const std::vector<size_t> &order)
{
    std::vector<SweepCell> cells;
    cells.reserve(order.size());
    for (size_t i : order)
        cells.push_back(plan.cells[i]);
    return cells;
}

/**
 * Hand memory the allocator kept from earlier repetitions back to the
 * kernel, then restart its record of peak resident memory (Linux
 * clear_refs "5"), so each repetition reads its own peak, as a fresh
 * process would.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident memory since the last reset, in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // KiB, process lifetime
}

/** Check every cell against the reference. */
void
checkCells(const Plan &plan, const std::vector<TimingResult> &results,
           Checks &c)
{
    c.attempted += int(plan.cells.size());
    for (size_t i = 0; i < plan.cells.size(); ++i) {
        const SweepCell &cell = plan.cells[i];
        std::string why =
            plan.reference->check(cell.workload, plan.scale, results[i]);
        if (!why.empty()) {
            ++c.failed;
            c.errors.push_back(cell.workload + "/" + cell.label + ": " +
                               why);
        }
    }
}

/** A repetition that threw: every cell counts as failed. */
void
failAll(const Plan &plan, const std::string &what, Checks &c)
{
    c.attempted += int(plan.cells.size());
    c.failed += int(plan.cells.size());
    c.errors.push_back(what);
}

void
expect(bool ok, const std::string &what, Checks &c)
{
    if (!ok)
        c.errors.push_back(what);
}

/** Store artifacts per workload: its trace, its analysis and one
 *  hint table per static policy (the TraceIndex is not stored). */
int
artifactsPerWorkload()
{
    return 2 + int(staticPolicies().size());
}

/** What the set-up obtains for each workload, through Session. */
void
sessionSetup(driver::SweepRunner &runner, double scale)
{
    const std::vector<std::string> &names = allWorkloadNames();
    runner.parallelFor(names.size(), [&](size_t i) {
        Session s = Session::open(names[i], scale, runner.cacheHandle());
        s.trace();
        s.analysis();
        for (const SpawnPolicy &p : staticPolicies())
            s.hints(p);
        runner.cache().traceIndex(names[i], scale);
    });
}

} // namespace

UntracedRep
runUntraced(const Plan &plan, int rep,
            const std::filesystem::path &storeDir)
{
    // SweepRunner attaches the store PF_CACHE_DIR names.
    setenv("PF_CACHE_DIR", storeDir.c_str(), 1);
    const std::vector<size_t> order =
        declarationOrder(plan.cells.size(), plan.seed, rep);
    const std::vector<SweepCell> cells = declared(plan, order);
    UntracedRep out;
    resetPeakRss();
    const std::int64_t t0 = nowNs();
    driver::SweepRunner runner(plan.jobs, plan.batchWidth);
    std::vector<driver::CellResult> results;
    try {
        sessionSetup(runner, plan.scale);
        const std::int64_t t1 = nowNs();
        results = runner.run(cells, false);
        const std::int64_t t2 = nowNs();
        out.setupS = seconds(t0, t1);
        out.sweepS = seconds(t1, t2);
    } catch (const std::exception &e) {
        failAll(plan, std::string("repetition threw: ") + e.what(),
                out.checks);
        return out;
    }

    std::vector<stats::RunRecord> records;
    records.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        records.push_back({cells[i].workload, plan.scale, cells[i].label,
                           results[i].sim});
    const std::string json = stats::toJson(records);

    out.results.resize(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        out.cellsS += results[i].wallSeconds;
        out.machineCycles += results[i].sim.cycles;
        out.results[order[i]] = std::move(results[i].sim);
    }
    checkCells(plan, out.results, out.checks);
    expect(!json.empty(), "empty stats export", out.checks);

    const driver::SweepCache &cache = runner.cache();
    const store::ArtifactStore &st = *cache.store();
    const int n = int(allWorkloadNames().size());
    const int artifacts = n * artifactsPerWorkload();
    const int hintTables = n * int(staticPolicies().size());
    if (plan.cold()) {
        expect(cache.tracesBuilt() == n && cache.analysesBuilt() == n &&
                   cache.hintTablesBuilt() == hintTables,
               "store tier: cold run must build every artifact",
               out.checks);
        expect(st.hits() == 0 && st.misses() == artifacts &&
                   st.saveFailures() == 0,
               "store tier: cold run must miss and save every artifact",
               out.checks);
    } else {
        expect(cache.tracesBuilt() == 0 && cache.analysesBuilt() == 0 &&
                   cache.hintTablesBuilt() == 0,
               "store tier: warm run built an artifact", out.checks);
        expect(st.hits() == artifacts && st.misses() == 0,
               "store tier: warm run expected " +
                   std::to_string(artifacts) + " store hits, got " +
                   std::to_string(st.hits()) + " hits and " +
                   std::to_string(st.misses()) + " misses",
               out.checks);
    }
    out.wallS = seconds(t0, nowNs());
    out.peakRssMb = peakRssMb();
    return out;
}

namespace {

/** One workload's artifacts, obtained layer by layer. */
struct Artifacts
{
    std::shared_ptr<const Workload> workload;
    Trace trace;
    std::shared_ptr<const SpawnAnalysis> analysis;
    /** Parallel to staticPolicies(). */
    std::vector<HintTable> hints;
    std::shared_ptr<const TraceIndex> index;
};

/**
 * Set up one workload as the SweepCache tiers do — store first, build
 * and save on a miss — with a span around every layer call. The warm
 * path must hit and the cold path must miss; anything else throws.
 */
void
tracedSetup(Tracer &tracer, int parent, store::ArtifactStore &st,
            const std::string &name, double scale, bool cold,
            Artifacts &a, std::uint64_t &tracedInstrs)
{
    auto needHit = [&](bool hit, const char *what) {
        if (hit == cold)
            throw std::runtime_error(
                name + ": unexpected store " + (hit ? "hit" : "miss") +
                " for " + what);
    };
    auto needSaved = [&](bool saved, const char *what) {
        if (!saved)
            throw std::runtime_error(name + ": store save failed for " +
                                     what);
    };

    {
        Scope s(tracer, "workloads.build", parent);
        a.workload = std::make_shared<const Workload>(
            buildWorkload(name, scale));
    }
    const LinkedProgram &prog = a.workload->prog;

    std::optional<Trace> trace;
    {
        Scope s(tracer, "store.load", parent);
        trace = st.loadTrace(name, scale, prog);
    }
    needHit(trace.has_value(), "trace");
    if (trace) {
        a.trace = std::move(*trace);
    } else {
        {
            Scope s(tracer, "isa.trace", parent);
            FunctionalOptions opt;
            opt.recordTrace = true;
            FunctionalResult r = runFunctional(prog, opt);
            if (!r.halted)
                throw std::runtime_error(name + ": did not halt");
            a.trace = std::move(r.trace);
        }
        tracedInstrs += a.trace.size();
        Scope s(tracer, "store.save", parent);
        needSaved(st.saveTrace(name, scale, prog, a.trace), "trace");
    }

    std::optional<std::vector<SpawnPoint>> points;
    {
        Scope s(tracer, "store.load", parent);
        points = st.loadAnalysisPoints(name, scale, prog);
        if (points)
            a.analysis =
                std::make_shared<const SpawnAnalysis>(std::move(*points));
    }
    needHit(a.analysis != nullptr, "analysis");
    if (!a.analysis) {
        {
            Scope s(tracer, "spawn.analysis", parent);
            a.analysis = std::make_shared<const SpawnAnalysis>(
                *a.workload->module, prog);
        }
        Scope s(tracer, "store.save", parent);
        needSaved(st.saveAnalysisPoints(name, scale, prog,
                                        a.analysis->points()),
                  "analysis");
    }

    for (const SpawnPolicy &p : staticPolicies()) {
        {
            Scope s(tracer, "store.load", parent);
            points = st.loadHintPoints(name, scale, prog, p.kindMask);
            if (points)
                a.hints.emplace_back(*points);
        }
        needHit(points.has_value(), "hint table");
        if (!points) {
            {
                Scope s(tracer, "spawn.hint_tables", parent);
                a.hints.emplace_back(*a.analysis, p);
            }
            Scope s(tracer, "store.save", parent);
            needSaved(st.saveHintPoints(name, scale, prog, p.kindMask,
                                        a.hints.back().points()),
                      "hint table");
        }
    }

    Scope s(tracer, "sim.trace_index", parent);
    a.index = std::make_shared<const TraceIndex>(a.trace);
}

} // namespace

TracedRep
runTraced(const Plan &plan, int rep,
          const std::filesystem::path &storeDir)
{
    setenv("PF_CACHE_DIR", storeDir.c_str(), 1);
    TracedRep out;
    Tracer tracer;
    const std::vector<std::string> &names = allWorkloadNames();
    std::vector<Artifacts> art(names.size());
    std::vector<TimingResult> results(plan.cells.size());
    // Batches formed in the repetition's declaration order, holding
    // indices into plan.cells.
    const std::vector<size_t> order =
        declarationOrder(plan.cells.size(), plan.seed, rep);
    auto batches = sweepBatches(declared(plan, order), plan.batchWidth,
                                /*splitBySource=*/true);
    for (std::vector<size_t> &b : batches) {
        for (size_t &i : b)
            i = order[i];
    }
    std::vector<StageProfile> profiles(batches.size());
    std::vector<std::int64_t> batchNs(batches.size());
    std::string json;
    int rootId = -1;
    try {
        Scope root(tracer, "bench.rep", -1);
        rootId = root.id();
        // Used only for its worker pool; the layers below are called
        // directly, not through its cache.
        driver::SweepRunner pool(plan.jobs, plan.batchWidth);
        store::ArtifactStore &st = *pool.cache().store();
        std::mutex instrsMutex;
        {
            Scope setup(tracer, "bench.setup", root.id());
            pool.parallelFor(names.size(), [&](size_t i) {
                std::uint64_t instrs = 0;
                tracedSetup(tracer, setup.id(), st, names[i], plan.scale,
                            plan.cold(), art[i], instrs);
                std::lock_guard<std::mutex> lock(instrsMutex);
                out.tracedInstrs += instrs;
            });
        }
        {
            Scope sweep(tracer, "bench.sweep", root.id());
            pool.parallelFor(batches.size(), [&](size_t b) {
                const std::vector<size_t> &batch = batches[b];
                std::vector<std::unique_ptr<SpawnSource>> sources;
                std::vector<BatchItem> items;
                for (size_t i : batch) {
                    const SweepCell &c = plan.cells[i];
                    size_t w = size_t(
                        std::find(names.begin(), names.end(),
                                  c.workload) -
                        names.begin());
                    Artifacts &a = art.at(w);
                    std::unique_ptr<SpawnSource> src;
                    switch (c.source.kind) {
                      case SourceSpec::Kind::Baseline:
                        break;
                      case SourceSpec::Kind::Static: {
                        const auto &ps = staticPolicies();
                        size_t k = size_t(
                            std::find_if(ps.begin(), ps.end(),
                                         [&](const SpawnPolicy &p) {
                                             return p.kindMask ==
                                                 c.source.policy.kindMask;
                                         }) -
                            ps.begin());
                        src = std::make_unique<StaticSpawnSource>(
                            a.hints.at(k));
                        break;
                      }
                      case SourceSpec::Kind::Recon:
                        src = std::make_unique<ReconSpawnSource>();
                        break;
                      case SourceSpec::Kind::Dmt:
                        src = std::make_unique<DmtSpawnSource>();
                        break;
                    }
                    items.push_back({&a.trace, src.get(),
                                     src ? a.index.get() : nullptr,
                                     c.label, nullptr});
                    sources.push_back(std::move(src));
                }
                std::vector<TimingResult> res;
                int id;
                {
                    Scope s(tracer, "sim.run_batch", sweep.id());
                    id = s.id();
                    res = TimingSim::runBatch(plan.cells[batch[0]].config,
                                              items, &profiles[b]);
                }
                batchNs[b] = tracer.durationNs(id);
                for (size_t k = 0; k < batch.size(); ++k)
                    results[batch[k]] = std::move(res[k]);
            });
        }
        {
            Scope s(tracer, "stats.export", root.id());
            std::vector<stats::RunRecord> records;
            records.reserve(results.size());
            for (size_t i = 0; i < results.size(); ++i)
                records.push_back({plan.cells[i].workload, plan.scale,
                                   plan.cells[i].label, results[i]});
            json = stats::toJson(records);
        }
        {
            Scope s(tracer, "bench.check", root.id());
            checkCells(plan, results, out.checks);
            expect(!json.empty(), "empty stats export", out.checks);
        }
        {
            Scope s(tracer, "store.entries", root.id());
            for (const store::EntryInfo &e : st.entries())
                out.storeBytes += e.fileBytes;
        }
        out.storeHits = st.hits();
        out.storeMisses = st.misses();
    } catch (const std::exception &e) {
        failAll(plan, std::string("traced repetition threw: ") + e.what(),
                out.checks);
        return out;
    }

    out.wallS = double(tracer.durationNs(rootId)) * 1e-9;
    out.selfS = tracer.selfSecondsByLayer();
    double structural = 0;
    for (const char *layer : {"bench.rep", "bench.setup", "bench.sweep"})
        structural += out.selfS[layer];
    out.unattributedFrac = out.wallS > 0 ? structural / out.wallS : 0;

    for (size_t b = 0; b < batches.size(); ++b) {
        const StageProfile &p = profiles[b];
        StageProfile &t = out.stages;
        t.commitNs += p.commitNs;
        t.accountingNs += p.accountingNs;
        t.divertNs += p.divertNs;
        t.issueNs += p.issueNs;
        t.renameNs += p.renameNs;
        t.fetchNs += p.fetchNs;
        t.recoveryNs += p.recoveryNs;
        t.cycles += p.cycles;
        t.machines += p.machines;
        auto &[ns, cycles] =
            out.bySource[sourceKindName(plan.cells[batches[b][0]].source)];
        ns += double(batchNs[b]);
        for (size_t i : batches[b])
            cycles += results[i].cycles;
    }
    return out;
}

void
primeStore(double scale, const std::filesystem::path &storeDir)
{
    setenv("PF_CACHE_DIR", storeDir.c_str(), 1);
    driver::SweepRunner runner(0, 0);
    sessionSetup(runner, scale);
    const store::ArtifactStore &st = *runner.cache().store();
    const int artifacts =
        int(allWorkloadNames().size()) * artifactsPerWorkload();
    if (st.hits() + st.misses() != artifacts || st.saveFailures() != 0)
        throw std::runtime_error("priming the store failed");
}

std::string
hostFactsJson()
{
#if defined(__clang__)
    const char *compiler = "clang";
#elif defined(__GNUC__)
    const char *compiler = "gcc";
#else
    const char *compiler = "unknown";
#endif
    return "\"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"compiler\": " +
        jsonString(std::string(compiler) + " " + __VERSION__) +
        ", \"build_type\": " + jsonString(PF_BENCH_BUILD_TYPE) +
        ", \"ndebug\": " + (releaseBuild() ? "true" : "false");
}

bool
releaseBuild()
{
#ifdef NDEBUG
    return true;
#else
    return false;
#endif
}

} // namespace pfbench
