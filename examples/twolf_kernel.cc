/**
 * @file
 * twolf_kernel: the paper's Section 2.3 case study on our port of
 * new_dbox_a. Shows how control-equivalent spawning recovers the
 * important loop spawns from a combination of hammock and loop
 * fall-through spawns, and reports the most frequent dynamic spawns
 * under each policy — mirroring the paper's discussion of PCs
 * 9da0/9dbc/9dc8/9dd8/9dec.
 */

#include <iostream>

#include "polyflow.hh"

using namespace polyflow;

int
main()
{
    std::cout << "twolf new_dbox_a case study (paper Section 2.3)\n\n";

    Session s = Session::open("twolf", 0.25);
    std::cout << "static spawn points in new_dbox_a:\n";
    FuncId dbox = s.module().findFunction("new_dbox_a");
    for (const SpawnPoint &p : s.analysis().points()) {
        if (p.func == dbox)
            std::cout << "  " << p.toString() << "\n";
    }
    std::cout << "\nThe paper's insight: the inner-loop iteration "
                 "spawn is recovered by chaining the\nthree hammock "
                 "spawns, and the outer-loop iteration spawn by the "
                 "inner loop's\nfall-through spawn.\n\n";

    TimingResult base = s.simulate(driver::runTable().superscalar);
    std::cout << "superscalar: IPC " << base.ipc() << "\n\n";

    for (const char *label : {"loop", "loopFT", "hammock", "postdoms"}) {
        TimingResult r = s.simulate(*driver::runByLabel(label));
        std::cout << label << ": speedup "
                  << r.speedupOver(base) << "%, spawns " << r.spawns
                  << " (";
        for (int k = 0; k < numSpawnKinds; ++k) {
            if (r.spawnsByKind[k]) {
                std::cout << spawnKindName(SpawnKind(k)) << "="
                          << r.spawnsByKind[k] << " ";
            }
        }
        std::cout << ")\n";
    }
    std::cout << "\nExpected shape (paper Figure 9, twolf): loop "
                 "fall-through and loop spawns\nperform well; "
                 "hammocks alone are weaker but combine with "
                 "loopFT under postdoms.\n";
    return 0;
}
