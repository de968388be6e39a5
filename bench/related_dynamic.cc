/**
 * @file
 * Related-work comparison (paper Section 5): DMT-style dynamic
 * heuristics (loop fall-through after backward branches + procedure
 * fall-throughs) vs the reconvergence-predictor spawning of Section
 * 4.4 vs compiler postdominators. The paper claims its static and
 * dynamic techniques capture more spawn opportunities than DMT.
 * The grid runs on the sweep engine.
 */

#include "bench_util.hh"

using namespace polyflow;
using namespace polyflow::bench;

int
main(int argc, char **argv)
{
    banner("Related work: DMT heuristics vs rec_pred vs postdoms "
           "(speedup % over superscalar)");

    const std::vector<std::string> &names = allWorkloadNames();
    const double scale = benchScale();

    std::vector<driver::SweepCell> cells;
    for (const std::string &name : names) {
        cells.push_back({name, scale, driver::SourceSpec::baseline(),
                         MachineConfig::superscalar(),
                         "superscalar"});
        cells.push_back({name, scale, driver::SourceSpec::dmt(),
                         MachineConfig{}, "dmt"});
        cells.push_back({name, scale, driver::SourceSpec::recon(),
                         MachineConfig{}, "rec_pred"});
        cells.push_back({name, scale,
                         driver::SourceSpec::statics(
                             SpawnPolicy::postdoms()),
                         MachineConfig{},
                         SpawnPolicy::postdoms().name});
    }
    driver::SweepRunner runner(driver::jobsFromArgs(argc, argv));
    const auto results = runner.run(cells);

    Table t({"benchmark", "DMT", "rec_pred", "postdoms"});
    std::vector<double> dmtCol, recCol, pdCol;

    const size_t stride = 4;
    for (size_t w = 0; w < names.size(); ++w) {
        const TimingResult &base = results[w * stride].sim;
        t.startRow();
        t.cell(names[w]);
        double d = results[w * stride + 1].sim.speedupOver(base);
        double r = results[w * stride + 2].sim.speedupOver(base);
        double p = results[w * stride + 3].sim.speedupOver(base);
        dmtCol.push_back(d);
        recCol.push_back(r);
        pdCol.push_back(p);
        t.cell(d, 1);
        t.cell(r, 1);
        t.cell(p, 1);
    }
    t.startRow();
    t.cell(std::string("Average"));
    t.cell(mean(dmtCol), 1);
    t.cell(mean(recCol), 1);
    t.cell(mean(pdCol), 1);
    t.print(std::cout);
    t.writeCsv("related_dynamic.csv");
    writeRunStats("related_dynamic.stats.json", cells, results);
    printCycleAttribution(cells, results);
    std::cout << "\nExpected ordering (paper Section 5): "
                 "DMT <= rec_pred <= postdoms on average.\n";
    return 0;
}
