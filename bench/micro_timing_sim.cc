/**
 * @file
 * Timing-simulator throughput microbenchmark, width 1 vs width W.
 *
 * For each (workload, config) it simulates the same W machines (one
 * trace, W fresh spawn sources) twice through the one batch engine:
 * as W batches of one (TimingSim::run), and as one stage-major batch
 * of W (TimingSim::runBatch). The metric is machine-cycles per
 * second of wall-clock. Both simulate identical cycles (the bench
 * asserts it), so the ratio isolates what a wider batch buys: each
 * stage's code and the shared trace's tables staying hot across
 * machines. Run it before and after touching TimingSim hot paths;
 * the comparison table is rewritten to results/micro_timing_sim.txt
 * so changes are visible in review.
 *
 * Knobs: --batch N (batch width W, default PF_BENCH_BATCH or 8),
 * PF_BENCH_SCALE.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_util.hh"
#include "polyflow.hh"

using namespace polyflow;
using namespace polyflow::bench;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

struct PathTiming
{
    double bestSeconds = 0.0;
    std::uint64_t machineCycles = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    banner("Micro: timing-simulator throughput, width 1 vs batched "
           "(machine-cycles/sec)");

    const std::vector<std::string> workloads = {"twolf", "mcf",
                                                "gcc"};
    const double scale = benchScale();
    const int width = driver::batchWidthFromArgs(argc, argv);
    const int reps = 3;  //!< best-of to damp scheduler noise

    std::cout << "batch width: " << width << ", best of " << reps
              << " reps\n\n";

    struct Setup
    {
        const char *label;
        MachineConfig config;
        driver::SourceSpec spec;
    };
    const std::vector<Setup> setups = {
        {"superscalar", MachineConfig::superscalar(),
         driver::SourceSpec::baseline()},
        {"postdoms", MachineConfig{},
         driver::SourceSpec::statics(SpawnPolicy::postdoms())},
    };

    Table t({"workload", "config", "machines", "width 1 s",
             "batched s", "width 1 Mc/s", "batched Mc/s", "speedup"});
    StageProfile singleProf, batchProf;
    std::uint64_t singleCycles = 0, batchCycles = 0;
    double singleSeconds = 0.0, batchSeconds = 0.0;
    std::ostringstream fileTable;

    for (const std::string &wl : workloads) {
        Session s = Session::open(wl, scale);
        for (const Setup &setup : setups) {
            // Width 1: the W machines as W batches of one. Sources
            // train, so every rep prepares fresh ones.
            PathTiming single;
            for (int r = 0; r < reps; ++r) {
                std::vector<PreparedRun> runs;
                for (int m = 0; m < width; ++m)
                    runs.push_back(
                        s.prepare(setup.spec, setup.label));
                std::uint64_t cycles = 0;
                double t0 = now();
                for (PreparedRun &run : runs) {
                    TimingSim sim(setup.config, run.trace(),
                                  run.source.get(),
                                  run.index.get());
                    if (r == 0)
                        sim.profileStages(&singleProf);
                    cycles += sim.run(run.label).cycles;
                }
                double wall = now() - t0;
                if (r == 0 || wall < single.bestSeconds)
                    single.bestSeconds = wall;
                single.machineCycles = cycles;
            }

            // Batched: the same W machines, one stage-major batch.
            PathTiming batched;
            for (int r = 0; r < reps; ++r) {
                std::vector<PreparedRun> runs;
                for (int m = 0; m < width; ++m)
                    runs.push_back(
                        s.prepare(setup.spec, setup.label));
                std::vector<BatchItem> items;
                for (const PreparedRun &run : runs)
                    items.push_back(run.item());
                double t0 = now();
                const auto out = TimingSim::runBatch(
                    setup.config, items,
                    r == 0 ? &batchProf : nullptr);
                double wall = now() - t0;
                std::uint64_t cycles = 0;
                for (const TimingResult &res : out)
                    cycles += res.cycles;
                if (r == 0 || wall < batched.bestSeconds)
                    batched.bestSeconds = wall;
                batched.machineCycles = cycles;
            }

            if (single.machineCycles != batched.machineCycles) {
                std::cerr << "FAIL: batched cycles diverge from "
                          << "width 1 for " << wl << "/"
                          << setup.label << ": "
                          << batched.machineCycles << " vs "
                          << single.machineCycles << "\n";
                return 1;
            }

            double sRate = single.bestSeconds > 0
                ? double(single.machineCycles) / single.bestSeconds
                : 0.0;
            double bRate = batched.bestSeconds > 0
                ? double(batched.machineCycles) /
                    batched.bestSeconds
                : 0.0;
            double speedup = sRate > 0 ? bRate / sRate : 0.0;
            singleCycles += single.machineCycles;
            batchCycles += batched.machineCycles;
            singleSeconds += single.bestSeconds;
            batchSeconds += batched.bestSeconds;

            t.startRow();
            t.cell(wl);
            t.cell(std::string(setup.label));
            t.cell((long long)width);
            t.cell(single.bestSeconds, 4);
            t.cell(batched.bestSeconds, 4);
            t.cell(sRate / 1e6, 2);
            t.cell(bRate / 1e6, 2);
            t.cell(speedup, 2);
            fileTable << wl << " " << setup.label << " width "
                      << width << " width1_mcps "
                      << sRate / 1e6 << " batched_mcps "
                      << bRate / 1e6 << " speedup " << speedup
                      << "\n";
        }
    }
    t.print(std::cout);

    double aggSingle =
        singleSeconds > 0 ? double(singleCycles) / singleSeconds
                          : 0.0;
    double aggBatch =
        batchSeconds > 0 ? double(batchCycles) / batchSeconds : 0.0;
    double aggSpeedup = aggSingle > 0 ? aggBatch / aggSingle : 0.0;
    std::cout << "\naggregate: width 1 " << aggSingle / 1e6
              << " Mcycles/s, batched " << aggBatch / 1e6
              << " Mcycles/s, speedup " << aggSpeedup << "x\n";

    // Per-stage breakdown at both widths, from the first rep of each
    // cell above. A profile spans every machine of its batches;
    // ns/kcycle divides by profiled machine-cycles, so the
    // per-machine cost is comparable across widths.
    auto breakdown = [](const char *what,
                        const StageProfile &prof) {
        std::cout << "\n" << what << " per-stage breakdown ("
                  << prof.machines << " machine(s), "
                  << prof.cycles << " machine-cycles):\n";
        Table bt({"stage", "share %", "ns/kcycle"});
        const struct
        {
            const char *name;
            std::uint64_t ns;
        } rows[] = {
            {"commit", prof.commitNs},
            {"account", prof.accountingNs},
            {"divert", prof.divertNs},
            {"issue", prof.issueNs},
            {"rename", prof.renameNs},
            {"fetch", prof.fetchNs},
            {"recover", prof.recoveryNs},
        };
        double total = double(prof.totalNs());
        for (const auto &r : rows) {
            bt.startRow();
            bt.cell(std::string(r.name));
            bt.cell(total > 0 ? 100.0 * double(r.ns) / total : 0.0,
                    1);
            bt.cell(prof.cycles > 0
                        ? 1e3 * double(r.ns) / double(prof.cycles)
                        : 0.0,
                    1);
        }
        bt.print(std::cout);
    };
    breakdown("width 1", singleProf);
    breakdown("batched", batchProf);

    std::filesystem::create_directories("results");
    std::ofstream out("results/micro_timing_sim.txt");
    out << "batch_width " << width << "\n"
        << fileTable.str()
        << "aggregate_width1_mcycles_per_sec " << aggSingle / 1e6
        << "\n"
        << "aggregate_batched_mcycles_per_sec " << aggBatch / 1e6
        << "\n"
        << "batched_over_width1_speedup " << aggSpeedup << "\n";
    return 0;
}
