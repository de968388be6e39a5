/**
 * @file
 * Every published table in one sweep: the paper's evaluation
 * (Figures 5 and 8-12 and the Section 5 comparison with DMT) and the
 * resource and policy ablation of DESIGN.md Section 6. One grid
 * holds every distinct run the reports read, and each report is a
 * table function over its results. The eight reports go to stdout
 * in that order; the CSVs and stats JSON go to the current
 * directory.
 *
 * Figures run at the bench scale (PF_BENCH_SCALE, default 1); the
 * ablation runs twolf and mcf at one fifth of it.
 */

#include <algorithm>
#include <array>
#include <functional>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/grid.hh"
#include "sim/config.hh"
#include "stats/export.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace polyflow;
using driver::Grid;

namespace {

/** Report banner: the title, the machine configuration and the
 *  workload scale the report's runs ran at. */
void
banner(const std::string &title, double scale)
{
    MachineConfig cfg;
    std::cout << "=== " << title << " ===\n"
              << "machine (Figure 8): " << cfg.describe() << "\n"
              << "workload scale: " << scale << "\n\n";
}

/**
 * What goes under a report's table, one record per table row: the
 * full structured stats as <stem>.stats.json (every counter and every
 * cycle-accounting bucket; byte-identical at any job count), then the
 * mechanism attribution — the cycle-accounting buckets averaged over
 * every record sharing a run label, one row per label in
 * first-appearance order — so a speedup (or its absence) comes with
 * *where the slots went*; see docs/OBSERVABILITY.md for the taxonomy.
 * Also re-checks the accounting identity on every run: a bench run
 * doubles as an invariant sweep.
 */
void
reportRuns(const std::string &stem,
           const std::vector<stats::RunRecord> &records)
{
    stats::writeFile(stem + ".stats.json", stats::toJson(records));
    struct Agg
    {
        std::string label;
        std::array<double, numSlotBuckets> pct{};
        int n = 0;
    };
    std::vector<Agg> aggs;
    for (const stats::RunRecord &r : records) {
        stats::checkSlotIdentity(r);
        const TimingResult &s = r.sim;
        auto a = std::find_if(aggs.begin(), aggs.end(), [&](auto &c) {
            return c.label == r.label;
        });
        if (a == aggs.end())
            a = aggs.insert(a, {r.label, {}, 0});
        for (int b = 0; b < numSlotBuckets; ++b)
            a->pct[b] += s.slotPercent(static_cast<SlotBucket>(b));
        ++a->n;
    }

    std::cout << "\ncycle accounting (mean % of issue slots per "
              << "run):\n";
    std::vector<std::string> header = {"run"};
    for (int b = 0; b < numSlotBuckets; ++b)
        header.push_back(slotBucketName(static_cast<SlotBucket>(b)));
    Table t(header);
    for (const Agg &a : aggs) {
        t.startRow();
        t.cell(a.label);
        for (int b = 0; b < numSlotBuckets; ++b)
            t.cell(a.pct[b] / a.n, 1);
    }
    t.print(std::cout);
}

/** Run label of the baseline every speedup is measured over. */
const std::string &superscalar = driver::runTable().superscalar.label;

/** One column of a figure's table. */
struct Column
{
    std::string heading;
    int precision = 1;
    bool averaged = true;  //!< else blank in the Average row
};

/**
 * A figure's table: one row per workload, @p row giving its values,
 * then an Average row. Prints it, writes <stem>.csv, reports the
 * figure's runs (per workload, the baseline and then @p runs) and
 * returns each column's average.
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
    std::vector<stats::RunRecord> records;
    for (const std::string &name : allWorkloadNames()) {
        records.push_back(g.record(g.cell(name, superscalar), superscalar));
        for (const std::string &label : runs)
            records.push_back(g.record(g.cell(name, label), label));
    }
    reportRuns(stem, records);
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
           "task types",
           scale);
    Table table({"benchmark", "loopFT%", "procFT%", "hammock%",
                 "other%", "totalStatic"});
    for (const std::string &name : allWorkloadNames()) {
        const SpawnCensus &c = cache.analysis(name, scale)->census();
        double total = c.postdomTotal();
        table.startRow();
        table.cell(name);
        for (SpawnKind k : {SpawnKind::LoopFT, SpawnKind::ProcFT,
                            SpawnKind::Hammock, SpawnKind::Other})
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
        std::to_string(gshareCounters * 2 / 1024) + "Kbit gshare, " +
            std::to_string(historyBits) + " bits of global history");
    row("Misprediction Penalty",
        "At least " + std::to_string(minMispredictPenalty) + " cycles");
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
    krow("maxTakenPerTaskCycle", maxTakenPerTaskCycle);
    krow("fetchQueueEntries", c.fetchQueueEntries);
    krow("frontendDepth", frontendDepth);
    krow("mulLatency", c.mulLatency);
    krow("divLatency", c.divLatency);
    krow("loadLatency", c.loadLatency);
    krow("maxSpawnDistance", c.maxSpawnDistance);
    krow("minSpawnDistance", c.minSpawnDistance);
    krow("spawnStartupDelay", spawnStartupDelay);
    krow("divertReleaseDelay", c.divertReleaseDelay);
    krow("squashRestartPenalty", squashRestartPenalty);
    krow("robReservePerOlderTask", c.robReservePerOlderTask);
    krow("returnStackEntries", c.returnStackEntries);
    krow("spawnFeedback", c.spawnFeedback);
    krow("wrongPathGhosts", c.wrongPathGhosts);
    krow("compilerDepHints", compilerDepHints);
    krow("spawnFromAnyTask", c.spawnFromAnyTask);
    k.print(std::cout);
}

/** Figure 11: the loss in speedup (normalized to the superscalar
 *  IPC, as in the paper) when postdoms excludes one category:
 *  loss = speedup(postdoms) - speedup(postdoms - category). */
void
fig11(const Grid &g, double scale)
{
    banner("Figure 11: loss in % speedup when one postdominator "
           "category is excluded",
           scale);
    const std::string postdoms = SpawnPolicy::postdoms().name;
    std::vector<Column> columns;
    std::vector<std::string> runs = {postdoms};
    for (const driver::RunSpec &r : driver::runTable().exclusions) {
        // "postdoms-loopFT" heads its column "-loopFT".
        columns.push_back({r.label.substr(postdoms.size())});
        runs.push_back(r.label);
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

/**
 * Conditional-branch PC -> ipdom PC: the postdominator spawn points
 * (loop fall-through, hammock, other) that a conditional branch
 * triggers.
 */
std::unordered_map<Addr, Addr>
branchIpdoms(const SpawnAnalysis &sa, const LinkedProgram &prog)
{
    std::unordered_map<Addr, Addr> out;
    for (const SpawnPoint &p : sa.points()) {
        if (p.kind != SpawnKind::LoopFT && p.kind != SpawnKind::Hammock &&
            p.kind != SpawnKind::Other)
            continue;
        if (prog.at(prog.idxOf(p.triggerPc)).instr.isCondBranch())
            out[p.triggerPc] = p.targetPc;
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
           "compiler postdominators (speedup %)",
           scale);
    const std::vector<std::string> runs = {
        "rec_pred", SpawnPolicy::postdoms().name};
    const std::vector<Column> columns = {
        {runs[0]}, {runs[1]}, {"predMatch%", 1, false},
        {"predCover%", 1, false}};
    figureTable(g, "fig12", columns, runs, [&](const std::string &name) {
        // Predictor fidelity vs static analysis, over branches it saw.
        auto rec = std::dynamic_pointer_cast<ReconSpawnSource>(
            g.at(name, runs[0]).source);
        auto ipdoms =
            branchIpdoms(*cache.analysis(name, scale),
                         cache.workload(name, scale)->prog);
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

/**
 * The resource and policy ablation of DESIGN.md Section 6: postdoms
 * on twolf and mcf with one design choice changed at a time, one
 * table per section of the run table. Rows whose config is the
 * default share one run. Writes ablation_resources.stats.json, one
 * record per table row.
 */
void
ablation(const Grid &g, double scale)
{
    banner("Ablations: resource and policy knobs (postdoms policy)",
           scale);
    const driver::RunTable &table = driver::runTable();
    std::vector<stats::RunRecord> records;
    for (const std::string &wl : table.ablationWorkloads) {
        const size_t baseCell =
            g.find(wl, scale, table.superscalar).value();
        const TimingResult &base = g.results()[baseCell].sim;
        records.push_back(g.record(baseCell, superscalar));
        std::cout << "== workload " << wl << " (superscalar IPC "
                  << base.ipc() << ") ==\n\n";
        for (const driver::RunSection &s : table.ablation) {
            Table t({"config", "cycles", "IPC", "speedup%", "spawns",
                     "violations"});
            for (const driver::RunSpec &row : s.runs) {
                const size_t cell = g.find(wl, scale, row).value();
                const TimingResult &r = g.results()[cell].sim;
                records.push_back(g.record(cell, row.label));
                t.startRow();
                t.cell(row.label);
                t.cell((long long)r.cycles);
                t.cell(r.ipc());
                t.cell(r.speedupOver(base), 1);
                t.cell((long long)r.spawns);
                t.cell((long long)r.violations);
            }
            std::cout << "--- " << s.title << " ---\n";
            t.print(std::cout);
            std::cout << "\n";
        }
    }
    reportRuns("ablation_resources", records);
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = driver::scaleFromEnv(1.0);
    Grid g = driver::figuresGrid(scale);
    driver::SweepRunner runner(driver::jobsFromArgs(argc, argv));
    g.run(runner);
    const std::string postdoms = SpawnPolicy::postdoms().name;

    fig05(runner.cache(), scale);
    fig08();

    // Figure 9: each single heuristic policy and postdoms, with the
    // superscalar IPCs, as in the paper. Its headline: postdoms more
    // than doubles the best single heuristic's average speedup.
    banner("Figure 9: individual heuristic spawn policies "
           "(speedup % over superscalar)",
           scale);
    const std::vector<std::string> single =
        driver::labelsOf(driver::runTable().individual);
    printPostdomsVsBest(speedupTable(g, "fig09", single, single, true),
                        "individual heuristic");

    // Figure 10: the heuristic combinations against postdoms.
    banner("Figure 10: heuristic combinations vs postdominators "
           "(speedup % over superscalar)",
           scale);
    std::vector<std::string> combined =
        driver::labelsOf(driver::runTable().combined);
    combined.push_back(postdoms);
    printPostdomsVsBest(
        speedupTable(g, "fig10", combined, combined, false),
        "combination");

    fig11(g, scale);
    fig12(g, runner.cache(), scale);

    // Related work (paper Section 5): DMT-style dynamic heuristics
    // (loop fall-through after backward branches, procedure
    // fall-throughs) vs rec_pred vs postdoms.
    banner("Related work: DMT heuristics vs rec_pred vs postdoms "
           "(speedup % over superscalar)",
           scale);
    speedupTable(g, "related_dynamic", {"dmt", "rec_pred", postdoms},
                 {"DMT", "rec_pred", postdoms}, false);
    std::cout << "\nExpected ordering (paper Section 5): "
                 "DMT <= rec_pred <= postdoms on average.\n";

    ablation(g, driver::ablationScale(scale));
    return 0;
}
