/**
 * @file
 * Figure 10: combinations of heuristics for spawn points. Compares
 * the three widely-used heuristic combinations (loop + loopFT,
 * loopFT + procFT, loop + procFT + loopFT) against spawning from
 * immediate postdominators. The grid runs on the sweep engine.
 */

#include "bench_util.hh"

using namespace polyflow;
using namespace polyflow::bench;

int
main(int argc, char **argv)
{
    banner("Figure 10: heuristic combinations vs postdominators "
           "(speedup % over superscalar)");

    const std::vector<SpawnPolicy> policies = {
        SpawnPolicy::loopPlusLoopFT(),
        SpawnPolicy::loopFTPlusProcFT(),
        SpawnPolicy::loopProcFTLoopFT(),
        SpawnPolicy::postdoms(),
    };
    const std::vector<std::string> &names = allWorkloadNames();
    const double scale = benchScale();

    std::vector<driver::SweepCell> cells;
    for (const std::string &name : names) {
        cells.push_back({name, scale, driver::SourceSpec::baseline(),
                         MachineConfig::superscalar(),
                         "superscalar"});
        for (const auto &p : policies) {
            cells.push_back({name, scale,
                             driver::SourceSpec::statics(p),
                             MachineConfig{}, p.name});
        }
    }
    driver::SweepRunner runner(driver::jobsFromArgs(argc, argv));
    const auto results = runner.run(cells);

    std::vector<std::string> header = {"benchmark"};
    for (const auto &p : policies)
        header.push_back(p.name);
    Table table(header);

    const size_t stride = 1 + policies.size();
    std::vector<std::vector<double>> columns(policies.size());
    for (size_t w = 0; w < names.size(); ++w) {
        const TimingResult &base = results[w * stride].sim;
        table.startRow();
        table.cell(names[w]);
        for (size_t i = 0; i < policies.size(); ++i) {
            const TimingResult &r = results[w * stride + 1 + i].sim;
            double s = r.speedupOver(base);
            columns[i].push_back(s);
            table.cell(s, 1);
        }
    }
    table.startRow();
    table.cell(std::string("Average"));
    for (auto &col : columns)
        table.cell(mean(col), 1);

    table.print(std::cout);
    table.writeCsv("fig10.csv");
    writeRunStats("fig10.stats.json", cells, results);
    printCycleAttribution(cells, results);

    double bestCombo = 0;
    for (size_t i = 0; i + 1 < columns.size(); ++i)
        bestCombo = std::max(bestCombo, mean(columns[i]));
    std::cout << "\npostdoms avg = " << mean(columns.back())
              << "%, best combination avg = " << bestCombo << "%\n";
    return 0;
}
