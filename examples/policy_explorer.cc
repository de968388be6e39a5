/**
 * @file
 * policy_explorer: run one workload under every spawn policy and
 * print the full machine statistics side by side.
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
    std::string name = argc > 1 ? argv[1] : "twolf";
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

    const std::vector<SpawnPolicy> policies = {
        SpawnPolicy::none(),     SpawnPolicy::loop(),
        SpawnPolicy::loopFT(),   SpawnPolicy::procFT(),
        SpawnPolicy::hammock(),  SpawnPolicy::other(),
        SpawnPolicy::loopPlusLoopFT(),
        SpawnPolicy::loopFTPlusProcFT(),
        SpawnPolicy::loopProcFTLoopFT(),
        SpawnPolicy::postdoms(),
    };

    Table t({"policy", "cycles", "IPC", "speedup%", "spawns",
             "skipCtx", "skipDist", "skipFb", "viol", "squash",
             "divert", "mispred", "I$miss", "disTrig"});
    TimingResult base;
    for (const SpawnPolicy &pol : policies) {
        MachineConfig cfg = pol.kindMask == 0
            ? MachineConfig::superscalar()
            : MachineConfig{};
        TimingResult r = s.simulate(cfg, pol);
        if (pol.kindMask == 0)
            base = r;
        t.startRow();
        t.cell(pol.name);
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
