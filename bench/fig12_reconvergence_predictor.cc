/**
 * @file
 * Figure 12: spawning from the dynamic reconvergence predictor
 * (rec_pred) versus compiler-generated immediate postdominators.
 * The predictor trains on the retirement stream during the run, so
 * warm-up effects are modelled. Also reports how well the trained
 * predictor matches the static immediate postdominators. The grid
 * runs on the sweep engine; the trained predictor of each cell stays
 * inspectable through its CellResult.
 */

#include "analysis/cfg_view.hh"
#include "analysis/dominators.hh"
#include "bench_util.hh"

using namespace polyflow;
using namespace polyflow::bench;

namespace {

/** Static map: conditional-branch PC -> ipdom block start PC. */
std::unordered_map<Addr, Addr>
staticIpdoms(const Workload &w)
{
    std::unordered_map<Addr, Addr> out;
    for (size_t f = 0; f < w.module->numFunctions(); ++f) {
        const Function &fn = w.module->function(FuncId(f));
        CfgView cfg(fn);
        PostDominatorTree pdt(cfg);
        for (size_t bi = 0; bi < fn.numBlocks(); ++bi) {
            const BasicBlock &bb = fn.block(BlockId(bi));
            if (!bb.hasTerminator() ||
                !bb.terminator().isCondBranch())
                continue;
            BlockId j = pdt.ipdomBlock(BlockId(bi));
            if (j != invalidBlock)
                out[bb.termAddr()] = fn.block(j).startAddr();
        }
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Figure 12: reconvergence-predictor spawning vs "
           "compiler postdominators (speedup %)");

    const std::vector<std::string> &names = allWorkloadNames();
    const double scale = benchScale();

    std::vector<driver::SweepCell> cells;
    for (const std::string &name : names) {
        cells.push_back({name, scale, driver::SourceSpec::baseline(),
                         MachineConfig::superscalar(),
                         "superscalar"});
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

    Table table({"benchmark", "rec_pred", "postdoms", "predMatch%",
                 "predCover%"});
    std::vector<double> recCol, pdCol;

    const size_t stride = 3;
    for (size_t w = 0; w < names.size(); ++w) {
        const TimingResult &base = results[w * stride].sim;
        const driver::CellResult &recCell =
            results[w * stride + 1];
        const TimingResult &pd = results[w * stride + 2].sim;

        // Predictor fidelity vs static analysis, over the branches
        // it saw.
        auto rec = std::dynamic_pointer_cast<ReconSpawnSource>(
            recCell.source);
        auto ipdoms = staticIpdoms(
            *runner.cache().workload(names[w], scale));
        int match = 0, predicted = 0;
        for (auto [pc, target] :
             rec->predictor().confidentPredictions()) {
            auto it = ipdoms.find(pc);
            if (it == ipdoms.end())
                continue;
            ++predicted;
            if (it->second == target)
                ++match;
        }
        double rs = recCell.sim.speedupOver(base);
        double ps = pd.speedupOver(base);
        recCol.push_back(rs);
        pdCol.push_back(ps);

        table.startRow();
        table.cell(names[w]);
        table.cell(rs, 1);
        table.cell(ps, 1);
        table.cell(predicted ? 100.0 * match / predicted : 0.0, 1);
        table.cell(ipdoms.empty()
                       ? 0.0
                       : 100.0 * predicted / double(ipdoms.size()),
                   1);
    }
    table.startRow();
    table.cell(std::string("Average"));
    table.cell(mean(recCol), 1);
    table.cell(mean(pdCol), 1);
    table.cell(std::string(""));
    table.cell(std::string(""));

    table.print(std::cout);
    table.writeCsv("fig12.csv");
    writeRunStats("fig12.stats.json", cells, results);
    printCycleAttribution(cells, results);
    std::cout << "\nrec_pred should approach postdoms but lag where "
                 "warm-up and hard-to-identify\nreconvergences "
                 "matter (paper Section 4.4).\n";
    return 0;
}
