/**
 * @file
 * Ablations over the design choices DESIGN.md calls out: task-count
 * sweep, divert-queue size, ROB size, spawn-distance cap, and the
 * profitability/ghost-context mechanisms, on two representative
 * workloads (twolf: loop-structured; mcf: hard hammocks). The whole
 * grid is declared up front and runs on the sweep engine; tables
 * print afterwards in declaration order.
 *
 * The grid runs at half of benchScale() and the banner prints the
 * knob itself: results/ablation_resources.txt, recorded at
 * PF_BENCH_SCALE=0.4, runs its workloads at scale 0.2.
 */

#include "bench_util.hh"

using namespace polyflow;
using namespace polyflow::bench;

namespace {

struct Section
{
    std::string title;
    std::vector<std::pair<std::string, MachineConfig>> cfgs;
};

std::vector<Section>
sections()
{
    std::vector<Section> out;
    {
        Section s{"task contexts", {}};
        for (int n : {1, 2, 4, 8, 16}) {
            MachineConfig c;
            c.numTasks = n;
            s.cfgs.emplace_back("tasks=" + std::to_string(n), c);
        }
        out.push_back(std::move(s));
    }
    {
        Section s{"divert queue entries", {}};
        for (int n : {16, 32, 64, 128, 256, 512}) {
            MachineConfig c;
            c.divertEntries = n;
            s.cfgs.emplace_back("divert=" + std::to_string(n), c);
        }
        out.push_back(std::move(s));
    }
    {
        Section s{"reorder buffer entries", {}};
        for (int n : {128, 256, 512, 1024}) {
            MachineConfig c;
            c.robEntries = n;
            s.cfgs.emplace_back("rob=" + std::to_string(n), c);
        }
        out.push_back(std::move(s));
    }
    {
        Section s{"max spawn distance", {}};
        for (unsigned d : {64u, 128u, 256u, 512u, 2048u, 8192u}) {
            MachineConfig c;
            c.maxSpawnDistance = d;
            s.cfgs.emplace_back("maxDist=" + std::to_string(d), c);
        }
        out.push_back(std::move(s));
    }
    {
        Section s{"spawn-unit mechanisms", {}};
        MachineConfig on;
        s.cfgs.emplace_back("feedback+ghosts", on);
        MachineConfig noFb;
        noFb.spawnFeedback = false;
        s.cfgs.emplace_back("no feedback", noFb);
        MachineConfig noGhost;
        noGhost.wrongPathGhosts = false;
        s.cfgs.emplace_back("no wrong-path ghosts", noGhost);
        MachineConfig neither;
        neither.spawnFeedback = false;
        neither.wrongPathGhosts = false;
        s.cfgs.emplace_back("neither", neither);
        out.push_back(std::move(s));
    }
    {
        // Paper Section 6 future work: spawn from any task, not
        // just the tail (nested hammocks can then spawn past their
        // inner branch).
        Section s{"spawn source task (Section 6 extension)", {}};
        MachineConfig tail;
        s.cfgs.emplace_back("tail-only (paper)", tail);
        MachineConfig any;
        any.spawnFromAnyTask = true;
        s.cfgs.emplace_back("spawn-from-any-task", any);
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Ablations: resource and policy knobs (postdoms policy)");

    const std::vector<std::string> workloads = {"twolf", "mcf"};
    const double scale = benchScale() * 0.5;
    const std::vector<Section> secs = sections();

    // Per workload: one superscalar baseline, then every section
    // config under postdoms.
    std::vector<driver::SweepCell> cells;
    for (const std::string &wl : workloads) {
        cells.push_back({wl, scale, driver::SourceSpec::baseline(),
                         MachineConfig::superscalar(),
                         "superscalar"});
        for (const Section &s : secs) {
            for (const auto &[name, cfg] : s.cfgs) {
                cells.push_back({wl, scale,
                                 driver::SourceSpec::statics(
                                     SpawnPolicy::postdoms()),
                                 cfg, name});
            }
        }
    }
    driver::SweepRunner runner(driver::jobsFromArgs(argc, argv));
    const auto results = runner.run(cells);

    size_t idx = 0;
    for (const std::string &wl : workloads) {
        const TimingResult &base = results[idx++].sim;
        std::cout << "== workload " << wl
                  << " (superscalar IPC " << base.ipc() << ") ==\n\n";
        for (const Section &s : secs) {
            Table t({"config", "cycles", "IPC", "speedup%", "spawns",
                     "violations"});
            for (size_t k = 0; k < s.cfgs.size(); ++k) {
                const TimingResult &r = results[idx++].sim;
                t.startRow();
                t.cell(s.cfgs[k].first);
                t.cell((long long)r.cycles);
                t.cell(r.ipc());
                t.cell(r.speedupOver(base), 1);
                t.cell((long long)r.spawns);
                t.cell((long long)r.violations);
            }
            std::cout << "--- " << s.title << " ---\n";
            t.print(std::cout);
            std::cout << "\n";
        }
    }
    writeRunStats("ablation_resources.stats.json", cells, results);
    printCycleAttribution(cells, results);
    return 0;
}
