/**
 * @file
 * pf_perfbench: the PolyFlow benchmark harness. run.py builds it and
 * drives it; see ../README.md for the workloads and metrics.
 *
 *   pf_perfbench --workload NAME --store DIR --reference-dir DIR
 *                [--seed N] [--seconds S] [--trace 0|1] [--scale X]
 *                [--record FILE] [--commit SHA]
 *   pf_perfbench --prime --store DIR [--scale X]
 *   pf_perfbench --write-reference --reference-dir DIR [--scale X]
 *
 * A run repeats its workload until --seconds have passed and reports
 * medians over the repetitions. The last line of stdout is the
 * result: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "spans.hh"
#include "summary.hh"
#include "workload.hh"

using namespace pfbench;
namespace fs = std::filesystem;

namespace {

/** Scale of every workload unless --scale overrides it. */
constexpr double kDefaultScale = 0.1;
/** Seed used when --seed is not given. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    double scale = kDefaultScale;
    fs::path store;
    fs::path referenceDir;
    std::string record;
    std::string commit = "unknown";
    bool prime = false;
    bool writeReference = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "pf_perfbench: %s\n", why.c_str());
    std::exit(2);
}

double
positive(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (errno || end == text || *end || !(v > 0) || !std::isfinite(v))
        usage(flag + ": expected a positive number, got \"" + text +
              "\"");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--prime") {
            a.prime = true;
            continue;
        }
        if (flag == "--write-reference") {
            a.writeReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + ": missing value");
        const char *v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            char *end = nullptr;
            errno = 0;
            unsigned long long s = std::strtoull(v, &end, 10);
            if (errno || end == v || *end || *v == '-')
                usage("--seed: expected a non-negative integer");
            a.seed = s;
        } else if (flag == "--seconds") {
            a.seconds = positive(flag, v);
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace: expected 0 or 1");
            a.trace = v[0] == '1';
        } else if (flag == "--scale") {
            a.scale = positive(flag, v);
        } else if (flag == "--store") {
            a.store = v;
        } else if (flag == "--reference-dir") {
            a.referenceDir = v;
        } else if (flag == "--record") {
            a.record = v;
        } else if (flag == "--commit") {
            a.commit = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    return a;
}

std::vector<Metric>
endToEnd(const std::vector<UntracedRep> &reps)
{
    std::vector<double> wall, setup, sweep, rate, rss;
    for (const UntracedRep &r : reps) {
        wall.push_back(r.wallS);
        setup.push_back(r.setupS);
        sweep.push_back(r.sweepS);
        rate.push_back(r.sweepS > 0
                           ? double(r.machineCycles) / r.sweepS / 1e6
                           : 0);
        rss.push_back(r.peakRssMb);
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"sweep_s", median(sweep), "s"},
        {"sim_mcycles_per_s", median(rate), "Mcycles/s"},
        {"peak_rss_mb", median(rss), "MB"},
    };
}

std::vector<Metric>
perLayer(const Plan &plan, const std::vector<UntracedRep> &untraced,
         const std::vector<TracedRep> &traced)
{
    // Median over traced repetitions of one per-repetition value.
    auto tmed = [&](auto &&f) {
        std::vector<double> v;
        for (const TracedRep &r : traced)
            v.push_back(f(r));
        return median(v);
    };
    auto self = [&](const char *layer) {
        return tmed([&](const TracedRep &r) {
            auto it = r.selfS.find(layer);
            return it == r.selfS.end() ? 0.0 : it->second;
        });
    };
    std::vector<Metric> m;
    m.push_back({"workloads.build_s", self("workloads.build"), "s"});
    const double traceS = self("isa.trace");
    const double traceInstrs =
        tmed([](const TracedRep &r) { return double(r.tracedInstrs); });
    m.push_back({"isa.trace_s", traceS, "s"});
    m.push_back({"isa.trace_instrs", traceInstrs, "count"});
    m.push_back({"isa.trace_minstr_per_s",
                 tmed([](const TracedRep &r) {
                     double s = r.selfS.count("isa.trace")
                         ? r.selfS.at("isa.trace")
                         : 0.0;
                     return s > 0 ? double(r.tracedInstrs) / s / 1e6 : 0;
                 }),
                 "Minstr/s"});
    m.push_back({"store.load_s", self("store.load"), "s"});
    m.push_back({"store.save_s", self("store.save"), "s"});
    const double hits =
        tmed([](const TracedRep &r) { return double(r.storeHits); });
    const double misses =
        tmed([](const TracedRep &r) { return double(r.storeMisses); });
    m.push_back({"store.hits", hits, "count"});
    m.push_back({"store.misses", misses, "count"});
    m.push_back({"store.hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"});
    m.push_back({"store.bytes",
                 tmed([](const TracedRep &r) {
                     return double(r.storeBytes);
                 }),
                 "B"});
    m.push_back({"spawn.analysis_s", self("spawn.analysis"), "s"});
    m.push_back({"spawn.hint_tables_s", self("spawn.hint_tables"), "s"});
    m.push_back({"sim.trace_index_s", self("sim.trace_index"), "s"});

    struct Stage
    {
        const char *name;
        std::uint64_t polyflow::StageProfile::*ns;
    };
    const Stage stages[] = {
        {"commit", &polyflow::StageProfile::commitNs},
        {"accounting", &polyflow::StageProfile::accountingNs},
        {"divert", &polyflow::StageProfile::divertNs},
        {"issue", &polyflow::StageProfile::issueNs},
        {"rename", &polyflow::StageProfile::renameNs},
        {"fetch", &polyflow::StageProfile::fetchNs},
        {"recovery", &polyflow::StageProfile::recoveryNs},
    };
    for (const Stage &s : stages) {
        m.push_back({std::string("sim.stage.") + s.name +
                         "_ns_per_kcycle",
                     tmed([&](const TracedRep &r) {
                         return r.stages.cycles
                             ? 1000.0 * double(r.stages.*s.ns) /
                                 double(r.stages.cycles)
                             : 0;
                     }),
                     "ns/kcycle"});
    }
    for (const Stage &s : stages) {
        m.push_back({std::string("sim.stage.") + s.name + "_share_pct",
                     tmed([&](const TracedRep &r) {
                         double total = double(r.stages.totalNs());
                         return total > 0
                             ? 100.0 * double(r.stages.*s.ns) / total
                             : 0;
                     }),
                     "%"});
    }
    for (const char *kind : {"superscalar", "static", "rec_pred", "dmt"}) {
        m.push_back({std::string("sim.source.") + kind + "_ns_per_cycle",
                     tmed([&](const TracedRep &r) {
                         auto it = r.bySource.find(kind);
                         if (it == r.bySource.end() || !it->second.second)
                             return 0.0;
                         return it->second.first /
                             double(it->second.second);
                     }),
                     "ns/cycle"});
    }

    // Exact counts and the model come from the untraced results; the
    // occupancy uses SweepRunner's own grouping of the grid. Every
    // (workload, config) group of these grids fits in one batch, so
    // the declaration order does not change the batches.
    const UntracedRep &first = untraced.front();
    const auto batches =
        sweepBatches(plan.cells, plan.batchWidth, /*splitBySource=*/false);
    m.push_back({"sim.batch.occupancy",
                 batchOccupancy(batches, first.results), "ratio"});
    m.push_back({"sim.batch.machines",
                 double(plan.cells.size()) / double(batches.size()),
                 "machines"});
    double instrs = 0;
    for (const polyflow::TimingResult &r : first.results)
        instrs += double(r.instrs);
    m.push_back({"sim.machine_cycles", double(first.machineCycles),
                 "count"});
    m.push_back({"sim.instrs", instrs, "count"});

    std::vector<double> cellsS, busy, untracedWall;
    for (const UntracedRep &r : untraced) {
        cellsS.push_back(r.cellsS);
        busy.push_back(r.sweepS > 0
                           ? r.cellsS / (double(plan.jobs) * r.sweepS)
                           : 0);
        untracedWall.push_back(r.wallS);
    }
    m.push_back({"driver.cells", double(plan.cells.size()), "count"});
    m.push_back({"driver.cells_s", median(cellsS), "s"});
    m.push_back({"driver.worker_busy_frac", median(busy), "ratio"});
    m.push_back({"stats.export_s", self("stats.export"), "s"});

    for (Metric &model : modelMetrics(plan.cells, first.results))
        m.push_back(std::move(model));

    const double tracedWall =
        tmed([](const TracedRep &r) { return r.wallS; });
    m.push_back({"trace.overhead_pct",
                 100.0 * (tracedWall / median(untracedWall) - 1.0), "%"});
    m.push_back({"trace.unattributed_pct",
                 tmed([](const TracedRep &r) {
                     return 100.0 * r.unattributedFrac;
                 }),
                 "%"});
    return m;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            s += ", ";
        s += jsonString(metrics[i].name) + ": {\"value\": " +
            jsonNumber(metrics[i].value) +
            ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return s + "}";
}

/** Pins the calling thread to each CPU of its affinity mask in
 *  turn. */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed))
                _cpus.push_back(c);
        }
    }

    void
    pinNext()
    {
        if (_cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(_cpus[_next++ % _cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    std::vector<int> _cpus;
    size_t _next = 0;
};

/** Per-repetition times of the untraced repetitions, in run order. */
std::string
samplesJson(const std::vector<UntracedRep> &reps)
{
    auto list = [&](double UntracedRep::*field) {
        std::string s = "[";
        for (size_t i = 0; i < reps.size(); ++i)
            s += (i ? ", " : "") + jsonNumber(reps[i].*field);
        return s + "]";
    };
    return "{\"wall_s\": " + list(&UntracedRep::wallS) +
        ", \"setup_s\": " + list(&UntracedRep::setupS) +
        ", \"sweep_s\": " + list(&UntracedRep::sweepS) + "}";
}

int
writeReference(const Args &args)
{
    // The lineup grid covers every cell of every workload.
    setenv("PF_CACHE_DIR", "off", 1);
    polyflow::driver::SweepRunner runner(0, 0);
    const auto cells = lineupCells(args.scale);
    const auto results = runner.run(cells, false);
    Reference ref;
    for (size_t i = 0; i < cells.size(); ++i)
        ref.add(cells[i].workload, args.scale, results[i].sim);
    fs::path out = referencePath(args.referenceDir, args.scale);
    ref.write(out);
    std::printf("wrote %zu cells to %s\n", ref.size(), out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    try {
        if (args.writeReference) {
            if (args.referenceDir.empty())
                usage("--reference-dir is required");
            return writeReference(args);
        }
        if (args.store.empty())
            usage("--store is required");
        if (args.prime) {
            primeStore(args.scale, args.store);
            return 0;
        }
        if (args.referenceDir.empty())
            usage("--reference-dir is required");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pf_perfbench: %s\n", e.what());
        return 1;
    }

    auto kind = workloadByName(args.workload);
    if (!kind)
        usage("--workload: expected lineup-serial, lineup-parallel or "
              "cold-pipeline, got \"" + args.workload + "\"");
    if (!releaseBuild()) {
        std::fprintf(stderr,
                     "pf_perfbench: refusing to report timings from an "
                     "assert-enabled build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n");
        return 3;
    }
    std::optional<Reference> ref =
        Reference::load(referencePath(args.referenceDir, args.scale));
    if (!ref) {
        std::fprintf(stderr,
                     "pf_perfbench: no pinned reference for scale %g "
                     "under %s\n",
                     args.scale, args.referenceDir.c_str());
        return 1;
    }
    const Plan plan = makePlan(*kind, args.scale, args.seed, &*ref);

    std::vector<UntracedRep> untraced;
    std::vector<TracedRep> traced;
    const std::int64_t start = nowNs();
    // Cores of a shared host run at different speeds from one moment
    // to the next. One worker would sit on whichever core the
    // scheduler picked for the whole run, so a single-worker
    // repetition is pinned to the next allowed CPU in turn, and every
    // run samples every core.
    CpuRotation cpus;
    auto repeat = [&](auto &&runRep) {
        if (plan.jobs == 1)
            cpus.pinNext();
        if (plan.cold())
            fs::remove_all(args.store);
        runRep(args.store);
        // The cold store goes before the kernel writes it back, so
        // no repetition pays for an earlier one's disk traffic.
        if (plan.cold())
            fs::remove_all(args.store);
    };
    do {
        const int rep = int(untraced.size());
        repeat([&](const fs::path &store) {
            untraced.push_back(runUntraced(plan, rep, store));
        });
        if (args.trace)
            repeat([&](const fs::path &store) {
                traced.push_back(runTraced(plan, rep, store));
            });
    } while (double(nowNs() - start) * 1e-9 < args.seconds);

    Checks all;
    auto merge = [&](const Checks &c) {
        all.attempted += c.attempted;
        all.failed += c.failed;
        all.errors.insert(all.errors.end(), c.errors.begin(),
                          c.errors.end());
    };
    for (const UntracedRep &r : untraced)
        merge(r.checks);
    for (const TracedRep &r : traced)
        merge(r.checks);
    for (size_t i = 0; i < all.errors.size() && i < 20; ++i)
        std::fprintf(stderr, "pf_perfbench: FAIL %s\n",
                     all.errors[i].c_str());

    std::vector<Metric> metrics;
    if (!untraced.front().results.empty())
        metrics = args.trace ? perLayer(plan, untraced, traced)
                             : endToEnd(untraced);

    std::cout << "workload " << args.workload << " (scale " << args.scale
              << ", " << plan.jobs << " worker(s), batch width "
              << plan.batchWidth << ", seed " << args.seed << ", "
              << untraced.size() << " repetition(s)"
              << (args.trace ? ", traced" : "") << ")\n";
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    const bool correct = all.ok();
    std::string errors = "[";
    for (size_t i = 0; i < all.errors.size() && i < 20; ++i)
        errors += (i ? ", " : "") + jsonString(all.errors[i]);
    errors += "]";
    std::string record = "{\"workload\": " + jsonString(args.workload) +
        ", \"traced\": " + (args.trace ? "true" : "false") +
        ", \"host\": {" + hostFactsJson() +
        "}, \"commit\": " + jsonString(args.commit) +
        ", \"scale\": " + jsonNumber(args.scale) +
        ", \"workers\": " + std::to_string(plan.jobs) +
        ", \"batch_width\": " + std::to_string(plan.batchWidth) +
        ", \"seed\": " + std::to_string(args.seed) +
        ", \"default_seed\": " + std::to_string(kDefaultSeed) +
        ", \"seconds\": " + jsonNumber(args.seconds) +
        ", \"repetitions\": " + std::to_string(untraced.size()) +
        ", \"correct\": " + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(all.attempted) +
        ", \"failed\": " + std::to_string(all.failed) +
        ", \"errors\": " + errors +
        ", \"metrics\": " + metricsJson(metrics) +
        ", \"samples\": " + samplesJson(untraced) + "}";
    if (!args.record.empty()) {
        std::ofstream out(args.record, std::ios::app);
        out << record << "\n";
        if (!out) {
            std::fprintf(stderr, "pf_perfbench: cannot write %s\n",
                         args.record.c_str());
            return 1;
        }
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << all.attempted
              << ", \"failed\": " << all.failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return 0;
}
