/**
 * @file
 * Figure 5: static distribution of control-equivalent task types
 * (loop fall-throughs, procedure fall-throughs, hammocks, other)
 * per benchmark, with the total number of static spawns on top of
 * each bar. Loop-iteration spawn points are excluded, exactly as in
 * the paper (the figure classifies postdominator spawns only).
 * Workload builds and spawn analyses run in parallel through the
 * sweep engine's shared cache; the table prints in workload order.
 */

#include "bench_util.hh"

using namespace polyflow;
using namespace polyflow::bench;

int
main(int argc, char **argv)
{
    banner("Figure 5: static distribution of control-equivalent "
           "task types");

    const std::vector<std::string> &names = allWorkloadNames();
    const double scale = 0.05;

    driver::SweepRunner runner(driver::jobsFromArgs(argc, argv));
    runner.parallelFor(names.size(), [&](size_t i) {
        runner.cache().analysis(names[i], scale);
    });

    Table table({"benchmark", "loopFT%", "procFT%", "hammock%",
                 "other%", "totalStatic"});

    for (const std::string &name : names) {
        auto sa = runner.cache().analysis(name, scale);
        const SpawnCensus &c = sa->census();
        double total = c.postdomTotal();
        auto pct = [&](SpawnKind k) {
            return total
                ? 100.0 * c.byKind[int(k)] / total : 0.0;
        };
        table.startRow();
        table.cell(name);
        table.cell(pct(SpawnKind::LoopFT), 1);
        table.cell(pct(SpawnKind::ProcFT), 1);
        table.cell(pct(SpawnKind::Hammock), 1);
        table.cell(pct(SpawnKind::Other), 1);
        table.cell((long long)total);
    }
    table.print(std::cout);
    table.writeCsv("fig05.csv");
    std::cout << "\nAll four categories should be represented; "
                 "hammocks, loop fall-throughs and procedure\n"
                 "fall-throughs are all important task types "
                 "(paper Section 2.2).\n";
    return 0;
}
