/**
 * @file
 * Figure 11: loss in speedup, relative to spawning from the full
 * postdominator set, for policies that exclude one spawn category.
 * Losses are normalized to the superscalar IPC, as in the paper:
 * loss = speedup(postdoms) - speedup(postdoms - category).
 * The grid runs on the sweep engine.
 */

#include "bench_util.hh"

using namespace polyflow;
using namespace polyflow::bench;

int
main(int argc, char **argv)
{
    banner("Figure 11: loss in % speedup when one postdominator "
           "category is excluded");

    const std::vector<SpawnKind> excluded = {
        SpawnKind::LoopFT,
        SpawnKind::ProcFT,
        SpawnKind::Hammock,
        SpawnKind::Other,
    };
    const std::vector<std::string> &names = allWorkloadNames();
    const double scale = benchScale();

    // Per workload: baseline, full postdoms, then one exclusion per
    // category.
    std::vector<driver::SweepCell> cells;
    for (const std::string &name : names) {
        cells.push_back({name, scale, driver::SourceSpec::baseline(),
                         MachineConfig::superscalar(),
                         "superscalar"});
        cells.push_back({name, scale,
                         driver::SourceSpec::statics(
                             SpawnPolicy::postdoms()),
                         MachineConfig{},
                         SpawnPolicy::postdoms().name});
        for (SpawnKind k : excluded) {
            SpawnPolicy p = SpawnPolicy::postdomsMinus(k);
            cells.push_back({name, scale,
                             driver::SourceSpec::statics(p),
                             MachineConfig{}, p.name});
        }
    }
    driver::SweepRunner runner(driver::jobsFromArgs(argc, argv));
    const auto results = runner.run(cells);

    std::vector<std::string> header = {"benchmark"};
    for (SpawnKind k : excluded)
        header.push_back(std::string("-") + spawnKindName(k));
    Table table(header);

    const size_t stride = 2 + excluded.size();
    std::vector<std::vector<double>> columns(excluded.size());
    for (size_t w = 0; w < names.size(); ++w) {
        const TimingResult &base = results[w * stride].sim;
        const TimingResult &full = results[w * stride + 1].sim;
        double fullSpeedup = full.speedupOver(base);
        table.startRow();
        table.cell(names[w]);
        for (size_t i = 0; i < excluded.size(); ++i) {
            const TimingResult &r = results[w * stride + 2 + i].sim;
            double loss = fullSpeedup - r.speedupOver(base);
            columns[i].push_back(loss);
            table.cell(loss, 1);
        }
    }
    table.startRow();
    table.cell(std::string("Average"));
    for (auto &col : columns)
        table.cell(mean(col), 1);

    table.print(std::cout);
    table.writeCsv("fig11.csv");
    writeRunStats("fig11.stats.json", cells, results);
    printCycleAttribution(cells, results);
    std::cout << "\nPositive numbers mean the excluded category was "
                 "contributing (paper: every category\nmatters on "
                 "specific benchmarks; small negative values can "
                 "appear when a benchmark is\nespecially receptive "
                 "to one spawn type, Section 4.3).\n";
    return 0;
}
