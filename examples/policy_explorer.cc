/**
 * @file
 * policy_explorer: run one workload under every figure run of the
 * run table (driver/grid.hh) — the superscalar, every static policy
 * and the two dynamic sources — and print the full machine
 * statistics side by side.
 *
 * Usage: policy_explorer [workload] [scale]
 */

#include <iostream>

#include "polyflow.hh"
#include "stats/table.hh"

using namespace polyflow;

int
main(int argc, char **argv)
{
    std::string name =
        argc > 1 ? driver::parseWorkload(argv[1]) : "twolf";
    double scale =
        argc > 2 ? driver::parseScale("scale", argv[2]) : 0.25;

    std::cout << "workload: " << name << " (scale " << scale
              << ")\n";
    Session s = Session::open(name, scale);
    std::cout << "committed instructions: " << s.trace().size()
              << "\n\n";

    const SpawnAnalysis &sa = s.analysis();
    std::cout << "static spawn points (" << sa.points().size()
              << "):\n";
    for (const SpawnPoint &p : sa.points())
        std::cout << "  " << p.toString() << "\n";
    std::cout << "\n";

    Table t({"policy", "cycles", "IPC", "speedup%", "spawns",
             "skipCtx", "skipDist", "skipFb", "viol", "squash",
             "divert", "mispred", "I$miss", "disTrig"});
    const std::vector<driver::RunSpec> runs = driver::figureRuns();
    TimingResult base;
    for (const driver::RunSpec &run : runs) {
        TimingResult r = s.simulate(run);
        if (run.label == runs.front().label)
            base = r;
        t.startRow();
        t.cell(run.label);
        t.cell((long long)r.cycles);
        t.cell(r.ipc());
        t.cell(r.speedupOver(base), 1);
        t.cell((long long)r.spawns);
        t.cell((long long)r.spawnsSkippedNoContext);
        t.cell((long long)r.spawnsSkippedDistance);
        t.cell((long long)r.spawnsSkippedFeedback);
        t.cell((long long)r.violations);
        t.cell((long long)r.tasksSquashed);
        t.cell((long long)r.instrsDiverted);
        t.cell((long long)r.branchMispredicts);
        t.cell((long long)r.icacheMisses);
        t.cell((long long)r.triggersDisabled);
    }
    t.print(std::cout);
    return 0;
}
