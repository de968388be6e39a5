/**
 * @file
 * Figure 9: speedup over the 8-wide superscalar for each individual
 * heuristic spawn policy (loop, loopFT, procFT, hammock, other) and
 * for control-equivalent spawning from all immediate postdominators
 * (postdoms). Superscalar IPCs are reported per benchmark, as in
 * the paper. The (workload x policy) grid runs on the sweep engine.
 */

#include "bench_util.hh"

using namespace polyflow;
using namespace polyflow::bench;

int
main(int argc, char **argv)
{
    banner("Figure 9: individual heuristic spawn policies "
           "(speedup % over superscalar)");

    const std::vector<SpawnPolicy> policies = {
        SpawnPolicy::loop(),    SpawnPolicy::loopFT(),
        SpawnPolicy::procFT(),  SpawnPolicy::hammock(),
        SpawnPolicy::other(),   SpawnPolicy::postdoms(),
    };
    const std::vector<std::string> &names = allWorkloadNames();
    const double scale = benchScale();

    // One baseline plus one run per policy, per workload.
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

    std::vector<std::string> header = {"benchmark", "ssIPC"};
    for (const auto &p : policies)
        header.push_back(p.name);
    Table table(header);

    const size_t stride = 1 + policies.size();
    std::vector<std::vector<double>> columns(policies.size());
    for (size_t w = 0; w < names.size(); ++w) {
        const TimingResult &base = results[w * stride].sim;
        table.startRow();
        table.cell(names[w]);
        table.cell(base.ipc());
        for (size_t i = 0; i < policies.size(); ++i) {
            const TimingResult &r = results[w * stride + 1 + i].sim;
            double s = r.speedupOver(base);
            columns[i].push_back(s);
            table.cell(s, 1);
        }
    }
    table.startRow();
    table.cell(std::string("Average"));
    table.cell(std::string(""));
    for (auto &col : columns)
        table.cell(mean(col), 1);

    table.print(std::cout);
    table.writeCsv("fig09.csv");
    writeRunStats("fig09.stats.json", cells, results);
    printCycleAttribution(cells, results);

    // Paper headline: postdoms more than doubles the best
    // individual heuristic's average speedup.
    double best = 0;
    for (size_t i = 0; i + 1 < columns.size(); ++i)
        best = std::max(best, mean(columns[i]));
    std::cout << "\npostdoms avg = " << mean(columns.back())
              << "%, best individual heuristic avg = " << best
              << "%\n";
    return 0;
}
