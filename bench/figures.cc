/**
 * @file
 * The paper's evaluation in one sweep: Figures 5 and 8-12 and the
 * Section 5 comparison with DMT. One grid holds every distinct run
 * the figures read, one cell per (workload, run label), and each
 * figure is a table function over its results. The seven reports go
 * to stdout in that order; each figure's CSV and stats JSON go to the
 * current directory.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include "analysis/cfg_view.hh"
#include "analysis/dominators.hh"
#include "bench_util.hh"
#include "workloads/workloads.hh"

using namespace polyflow;
using namespace polyflow::bench;

namespace {

/** Run label of the baseline every speedup is measured over. */
const std::string superscalar = "superscalar";

/** The single heuristic policies and postdoms (Figure 9). */
const std::vector<SpawnPolicy> singles = {
    SpawnPolicy::loop(),    SpawnPolicy::loopFT(), SpawnPolicy::procFT(),
    SpawnPolicy::hammock(), SpawnPolicy::other(),  SpawnPolicy::postdoms()};

/** The widely used heuristic combinations (Figure 10). */
const std::vector<SpawnPolicy> combinations = {
    SpawnPolicy::loopPlusLoopFT(), SpawnPolicy::loopFTPlusProcFT(),
    SpawnPolicy::loopProcFTLoopFT()};

/** The four postdominator categories (Figures 5 and 11). */
const std::vector<SpawnKind> categories = {
    SpawnKind::LoopFT, SpawnKind::ProcFT, SpawnKind::Hammock,
    SpawnKind::Other};

std::vector<std::string>
labelsOf(const std::vector<SpawnPolicy> &policies)
{
    std::vector<std::string> out;
    for (const SpawnPolicy &p : policies)
        out.push_back(p.name);
    return out;
}

/** Every run of every figure, once: per workload the baseline, the
 *  single policies, the combinations, postdoms minus each category,
 *  rec_pred and dmt. */
struct Grid
{
    std::vector<driver::SweepCell> cells;
    std::vector<driver::CellResult> results;
    std::map<std::pair<std::string, std::string>, size_t> index;

    Grid(driver::SweepRunner &runner, double scale)
    {
        std::vector<std::pair<std::string, driver::SourceSpec>> runs;
        std::vector<SpawnPolicy> statics = singles;
        statics.insert(statics.end(), combinations.begin(),
                       combinations.end());
        for (SpawnKind k : categories)
            statics.push_back(SpawnPolicy::postdomsMinus(k));
        for (const SpawnPolicy &p : statics)
            runs.emplace_back(p.name, driver::SourceSpec::statics(p));
        runs.emplace_back("rec_pred", driver::SourceSpec::recon());
        runs.emplace_back("dmt", driver::SourceSpec::dmt());

        for (const std::string &name : allWorkloadNames()) {
            index[{name, superscalar}] = cells.size();
            cells.push_back({name, scale, driver::SourceSpec::baseline(),
                             MachineConfig::superscalar(), superscalar});
            for (const auto &[label, source] : runs) {
                index[{name, label}] = cells.size();
                cells.push_back(
                    {name, scale, source, MachineConfig{}, label});
            }
        }
        results = runner.run(cells);
    }

    const driver::CellResult &
    at(const std::string &workload, const std::string &label) const
    {
        return results[index.at({workload, label})];
    }

    /** Speedup % over superscalar of each run in @p labels. */
    std::vector<double>
    speedups(const std::string &workload,
             const std::vector<std::string> &labels) const
    {
        const TimingResult &base = at(workload, superscalar).sim;
        std::vector<double> out;
        for (const std::string &label : labels)
            out.push_back(at(workload, label).sim.speedupOver(base));
        return out;
    }

    /** <stem>.stats.json and the cycle attribution over a figure's
     *  runs: per workload, the baseline and then @p labels. */
    void
    report(const std::string &stem,
           const std::vector<std::string> &labels) const
    {
        std::vector<std::string> runs = {superscalar};
        runs.insert(runs.end(), labels.begin(), labels.end());
        std::vector<driver::SweepCell> figCells;
        std::vector<driver::CellResult> figResults;
        for (const std::string &name : allWorkloadNames()) {
            for (const std::string &label : runs) {
                const size_t i = index.at({name, label});
                figCells.push_back(cells[i]);
                figResults.push_back(results[i]);
            }
        }
        writeRunStats(stem + ".stats.json", figCells, figResults);
        printCycleAttribution(figCells, figResults);
    }
};

/** One column of a figure's table. */
struct Column
{
    std::string heading;
    int precision = 1;
    bool averaged = true;  //!< else blank in the Average row
};

/**
 * A figure's table: one row per workload, @p row giving its values,
 * then an Average row. Prints it, writes <stem>.csv and the figure's
 * report over @p runs, and returns each column's average.
 */
std::vector<double>
figureTable(
    const Grid &g, const std::string &stem,
    const std::vector<Column> &columns,
    const std::vector<std::string> &runs,
    const std::function<std::vector<double>(const std::string &)> &row)
{
    std::vector<std::string> header = {"benchmark"};
    for (const Column &c : columns)
        header.push_back(c.heading);
    Table table(header);
    std::vector<std::vector<double>> values(columns.size());
    for (const std::string &name : allWorkloadNames()) {
        const std::vector<double> v = row(name);
        table.startRow();
        table.cell(name);
        for (size_t i = 0; i < columns.size(); ++i) {
            values[i].push_back(v[i]);
            table.cell(v[i], columns[i].precision);
        }
    }
    table.startRow();
    table.cell(std::string("Average"));
    std::vector<double> means;
    for (size_t i = 0; i < columns.size(); ++i) {
        means.push_back(mean(values[i]));
        if (columns[i].averaged)
            table.cell(means.back(), 1);
        else
            table.cell(std::string(""));
    }
    table.print(std::cout);
    table.writeCsv(stem + ".csv");
    g.report(stem, runs);
    return means;
}

/**
 * The speedup table of Figures 9 and 10 and the DMT comparison: each
 * run in @p labels (headed @p headings), after the superscalar IPC if
 * @p ssIPC. Returns the speedup columns' averages for the footer.
 */
std::vector<double>
speedupTable(const Grid &g, const std::string &stem,
             const std::vector<std::string> &labels,
             const std::vector<std::string> &headings, bool ssIPC)
{
    std::vector<Column> columns;
    if (ssIPC)
        columns.push_back({"ssIPC", 2, false});
    for (const std::string &h : headings)
        columns.push_back({h});
    std::vector<double> means = figureTable(
        g, stem, columns, labels, [&](const std::string &name) {
            std::vector<double> v = g.speedups(name, labels);
            if (ssIPC)
                v.insert(v.begin(), g.at(name, superscalar).sim.ipc());
            return v;
        });
    if (ssIPC)
        means.erase(means.begin());
    return means;
}

/** The footer of Figures 9 and 10: the postdoms (last) average and
 *  the best of the @p others (0 if none is above 0). */
void
printPostdomsVsBest(const std::vector<double> &means,
                    const std::string &others)
{
    std::cout << "\npostdoms avg = " << means.back() << "%, best "
              << others << " avg = "
              << std::max(0.0, *std::max_element(means.begin(),
                                                 means.end() - 1))
              << "%\n";
}

/** Figure 5: each benchmark's static postdominator spawns by
 *  category (loop-iteration spawns excluded, as in the paper), from
 *  the spawn analyses of the grid's static runs. */
void
fig05(driver::SweepCache &cache, double scale)
{
    banner("Figure 5: static distribution of control-equivalent "
           "task types");
    Table table({"benchmark", "loopFT%", "procFT%", "hammock%",
                 "other%", "totalStatic"});
    for (const std::string &name : allWorkloadNames()) {
        const SpawnCensus &c = cache.analysis(name, scale)->census();
        double total = c.postdomTotal();
        table.startRow();
        table.cell(name);
        for (SpawnKind k : categories)
            table.cell(total ? 100.0 * c.byKind[int(k)] / total : 0.0,
                       1);
        table.cell((long long)total);
    }
    table.print(std::cout);
    table.writeCsv("fig05.csv");
    std::cout << "\nAll four categories should be represented; "
                 "hammocks, loop fall-throughs and procedure\n"
                 "fall-throughs are all important task types "
                 "(paper Section 2.2).\n";
}

/** Figure 8: the pipeline parameters, printed from the live
 *  MachineConfig so they cannot drift from what the figures run. */
void
fig08()
{
    MachineConfig c;
    std::cout << "=== Figure 8: pipeline parameters ===\n\n";

    Table t({"Parameter", "Value"});
    auto row = [&](const std::string &k, const std::string &v) {
        t.startRow();
        t.cell(k);
        t.cell(v);
    };
    const std::string shared = " entries, dynamically shared";
    auto cache = [](const CacheConfig &cc) {
        return std::to_string(cc.sizeBytes / 1024) + "Kbytes, " +
            std::to_string(cc.assoc) + "-way set assoc., " +
            std::to_string(cc.lineBytes) + " byte lines, " +
            std::to_string(cc.missLatency) + " cycle miss";
    };
    row("Pipeline Width",
        std::to_string(c.pipelineWidth) + " instrs/cycle");
    row("Branch Predictor",
        std::to_string(c.gshareCounters * 2 / 1024) + "Kbit gshare, " +
            std::to_string(c.historyBits) + " bits of global history");
    row("Misprediction Penalty",
        "At least " + std::to_string(c.minMispredictPenalty) + " cycles");
    row("Reorder Buffer", std::to_string(c.robEntries) + shared);
    row("Scheduler", std::to_string(c.schedEntries) + shared);
    row("Functional Units",
        std::to_string(c.numFUs) + " identical general purpose units");
    row("L1 I-Cache", cache(c.l1i));
    row("L1 D-Cache", cache(c.l1d));
    row("L2 Cache", cache(c.l2));
    row("Divert Queue", std::to_string(c.divertEntries) + shared);
    row("Tasks", std::to_string(c.numTasks));
    t.print(std::cout);

    std::cout << "\nModel-specific knobs (DESIGN.md Section 7):\n";
    Table k({"Knob", "Value"});
    auto krow = [&](const std::string &a, long long v) {
        k.startRow();
        k.cell(a);
        k.cell(v);
    };
    krow("fetchTasksPerCycle", c.fetchTasksPerCycle);
    krow("maxTakenPerTaskCycle", c.maxTakenPerTaskCycle);
    krow("fetchQueueEntries", c.fetchQueueEntries);
    krow("frontendDepth", c.frontendDepth);
    krow("mulLatency", c.mulLatency);
    krow("divLatency", c.divLatency);
    krow("loadLatency", c.loadLatency);
    krow("maxSpawnDistance", c.maxSpawnDistance);
    krow("minSpawnDistance", c.minSpawnDistance);
    krow("spawnStartupDelay", c.spawnStartupDelay);
    krow("divertReleaseDelay", c.divertReleaseDelay);
    krow("squashRestartPenalty", c.squashRestartPenalty);
    krow("robReservePerOlderTask", c.robReservePerOlderTask);
    krow("returnStackEntries", c.returnStackEntries);
    krow("spawnFeedback", c.spawnFeedback);
    krow("wrongPathGhosts", c.wrongPathGhosts);
    krow("compilerDepHints", c.compilerDepHints);
    krow("spawnFromAnyTask", c.spawnFromAnyTask);
    k.print(std::cout);
}

/** Figure 11: the loss in speedup (normalized to the superscalar
 *  IPC, as in the paper) when postdoms excludes one category:
 *  loss = speedup(postdoms) - speedup(postdoms - category). */
void
fig11(const Grid &g)
{
    banner("Figure 11: loss in % speedup when one postdominator "
           "category is excluded");
    std::vector<Column> columns;
    std::vector<std::string> runs = {SpawnPolicy::postdoms().name};
    for (SpawnKind k : categories) {
        columns.push_back({std::string("-") + spawnKindName(k)});
        runs.push_back(SpawnPolicy::postdomsMinus(k).name);
    }
    figureTable(g, "fig11", columns, runs, [&](const std::string &name) {
        const std::vector<double> s = g.speedups(name, runs);
        std::vector<double> loss;
        for (size_t i = 1; i < s.size(); ++i)
            loss.push_back(s[0] - s[i]);
        return loss;
    });
    std::cout << "\nPositive numbers mean the excluded category was "
                 "contributing (paper: every category\nmatters on "
                 "specific benchmarks; small negative values can "
                 "appear when a benchmark is\nespecially receptive "
                 "to one spawn type, Section 4.3).\n";
}

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

/**
 * Figure 12: spawning from the dynamic reconvergence predictor
 * (rec_pred), which trains on the retirement stream during the run,
 * versus compiler postdominators; and how well each trained
 * predictor matches the static immediate postdominators.
 */
void
fig12(const Grid &g, driver::SweepCache &cache, double scale)
{
    banner("Figure 12: reconvergence-predictor spawning vs "
           "compiler postdominators (speedup %)");
    const std::vector<std::string> runs = {
        "rec_pred", SpawnPolicy::postdoms().name};
    const std::vector<Column> columns = {
        {runs[0]}, {runs[1]}, {"predMatch%", 1, false},
        {"predCover%", 1, false}};
    figureTable(g, "fig12", columns, runs, [&](const std::string &name) {
        // Predictor fidelity vs static analysis, over branches it saw.
        auto rec = std::dynamic_pointer_cast<ReconSpawnSource>(
            g.at(name, runs[0]).source);
        auto ipdoms = staticIpdoms(*cache.workload(name, scale));
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
        std::vector<double> v = g.speedups(name, runs);
        v.push_back(predicted ? 100.0 * match / predicted : 0.0);
        v.push_back(ipdoms.empty()
                        ? 0.0
                        : 100.0 * predicted / double(ipdoms.size()));
        return v;
    });
    std::cout << "\nrec_pred should approach postdoms but lag where "
                 "warm-up and hard-to-identify\nreconvergences "
                 "matter (paper Section 4.4).\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = benchScale();
    driver::SweepRunner runner(driver::jobsFromArgs(argc, argv));
    const Grid g(runner, scale);
    const std::string postdoms = SpawnPolicy::postdoms().name;

    fig05(runner.cache(), scale);
    fig08();

    // Figure 9: each single heuristic policy and postdoms, with the
    // superscalar IPCs, as in the paper. Its headline: postdoms more
    // than doubles the best single heuristic's average speedup.
    banner("Figure 9: individual heuristic spawn policies "
           "(speedup % over superscalar)");
    const std::vector<std::string> single = labelsOf(singles);
    printPostdomsVsBest(speedupTable(g, "fig09", single, single, true),
                        "individual heuristic");

    // Figure 10: the heuristic combinations against postdoms.
    banner("Figure 10: heuristic combinations vs postdominators "
           "(speedup % over superscalar)");
    std::vector<std::string> combined = labelsOf(combinations);
    combined.push_back(postdoms);
    printPostdomsVsBest(
        speedupTable(g, "fig10", combined, combined, false),
        "combination");

    fig11(g);
    fig12(g, runner.cache(), scale);

    // Related work (paper Section 5): DMT-style dynamic heuristics
    // (loop fall-through after backward branches, procedure
    // fall-throughs) vs rec_pred vs postdoms.
    banner("Related work: DMT heuristics vs rec_pred vs postdoms "
           "(speedup % over superscalar)");
    speedupTable(g, "related_dynamic", {"dmt", "rec_pred", postdoms},
                 {"DMT", "rec_pred", postdoms}, false);
    std::cout << "\nExpected ordering (paper Section 5): "
                 "DMT <= rec_pred <= postdoms on average.\n";
    return 0;
}
