/**
 * @file
 * Tests for the parallel sweep engine: a multi-threaded sweep must
 * reproduce the serial reference results cell for cell whatever the
 * schedule, the cost order must put the expensive cells first, a
 * failing grid must report the same cell at any job count, the
 * shared cache must trace/analyze each workload exactly once, shared
 * trace indexes must not change simulation outcomes, and the
 * environment knob parsers must reject garbage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "polyflow.hh"
#include "stats/export.hh"
#include "store/sha256.hh"

namespace polyflow {
namespace {

/** These tests assert on SweepCache build counters, which a
 *  persistent store from an earlier run would legitimately zero
 *  out. Force the in-process tiers only. */
const bool kStoreDisabled = [] {
    ::setenv("PF_CACHE_DIR", "off", 1);
    return true;
}();

constexpr double kScale = 0.05;

const std::vector<std::string> &
testWorkloads()
{
    static const std::vector<std::string> names = {"twolf", "mcf"};
    return names;
}

std::vector<SpawnPolicy>
testPolicies()
{
    return {SpawnPolicy::loop(), SpawnPolicy::procFT(),
            SpawnPolicy::postdoms()};
}

/** The pre-sweep-engine serial reference: trace, analyze and
 *  simulate each cell in a plain loop, sharing nothing. */
std::vector<TimingResult>
serialReference()
{
    std::vector<TimingResult> out;
    for (const std::string &name : testWorkloads()) {
        Workload w = buildWorkload(name, kScale);
        FunctionalOptions opt;
        opt.recordTrace = true;
        FunctionalResult fr = runFunctional(w.prog, opt);
        EXPECT_TRUE(fr.halted);
        out.push_back(runTiming(MachineConfig::superscalar(),
                               fr.trace, nullptr, "superscalar"));
        for (const SpawnPolicy &p : testPolicies()) {
            SpawnAnalysis sa(*w.module, w.prog);
            StaticSpawnSource src(HintTable(sa, p));
            out.push_back(
                runTiming(MachineConfig{}, fr.trace, &src, p.name));
        }
    }
    return out;
}

std::vector<driver::SweepCell>
grid()
{
    std::vector<driver::SweepCell> cells;
    for (const std::string &name : testWorkloads()) {
        cells.push_back({name, kScale,
                         driver::SourceSpec::baseline(),
                         MachineConfig::superscalar(),
                         "superscalar"});
        for (const SpawnPolicy &p : testPolicies()) {
            cells.push_back({name, kScale,
                             driver::SourceSpec::statics(p),
                             MachineConfig{}, p.name});
        }
    }
    return cells;
}

void
expectSameResult(const TimingResult &a, const TimingResult &b)
{
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.spawns, b.spawns);
    EXPECT_EQ(a.spawnsByKind, b.spawnsByKind);
    EXPECT_EQ(a.tasksRetired, b.tasksRetired);
    EXPECT_EQ(a.tasksSquashed, b.tasksSquashed);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.instrsDiverted, b.instrsDiverted);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.triggersDisabled, b.triggersDisabled);
    EXPECT_EQ(a.issueWidth, b.issueWidth);
    EXPECT_EQ(a.slots, b.slots);
}

TEST(SweepEngine, FourThreadSweepMatchesSerialReference)
{
    const std::vector<TimingResult> ref = serialReference();
    driver::SweepRunner runner(4);
    const auto results = runner.run(grid(), /*report=*/false);

    ASSERT_EQ(results.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameResult(results[i].sim, ref[i]);
    }
}

TEST(SweepEngine, CacheTracesEachWorkloadExactlyOnce)
{
    driver::SweepRunner runner(4);
    const auto cells = grid();
    runner.run(cells, /*report=*/false);

    const int nwl = static_cast<int>(testWorkloads().size());
    EXPECT_EQ(runner.cache().workloadsBuilt(), nwl);
    EXPECT_EQ(runner.cache().tracesBuilt(), nwl);
    EXPECT_EQ(runner.cache().analysesBuilt(), nwl);
    EXPECT_EQ(runner.cache().hintTablesBuilt(),
              nwl * static_cast<int>(testPolicies().size()));

    // A second pass over the same grid hits the cache throughout.
    runner.run(cells, /*report=*/false);
    EXPECT_EQ(runner.cache().workloadsBuilt(), nwl);
    EXPECT_EQ(runner.cache().tracesBuilt(), nwl);
    EXPECT_EQ(runner.cache().analysesBuilt(), nwl);
    EXPECT_EQ(runner.cache().hintTablesBuilt(),
              nwl * static_cast<int>(testPolicies().size()));
}

TEST(SweepEngine, ResultsComeBackInCellOrder)
{
    driver::SweepRunner runner(4);
    const auto cells = grid();
    const auto results = runner.run(cells, /*report=*/false);
    ASSERT_EQ(results.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(results[i].sim.policyName, cells[i].label);
}

TEST(SweepEngine, SharedTraceIndexMatchesPrivateIndex)
{
    Workload w = buildWorkload("twolf", kScale);
    FunctionalOptions opt;
    opt.recordTrace = true;
    FunctionalResult fr = runFunctional(w.prog, opt);
    ASSERT_TRUE(fr.halted);

    SpawnAnalysis sa(*w.module, w.prog);
    HintTable table(sa, SpawnPolicy::postdoms());
    TraceIndex shared(fr.trace);

    // Three runs of one cell: a private index, a shared index, and
    // Session::simulate, which shares both the cache's hint table
    // and its index.
    std::vector<TaskEvent> privEvents, shrdEvents, sessionEvents;
    StaticSpawnSource srcPrivate(table);
    TimingResult priv = runTiming(MachineConfig{}, fr.trace, &srcPrivate,
                                  "postdoms", nullptr, &privEvents);
    StaticSpawnSource srcShared(table);
    TimingResult shrd = runTiming(MachineConfig{}, fr.trace, &srcShared,
                                  "postdoms", &shared, &shrdEvents);
    Session s = Session::open("twolf", kScale);
    Session::RunOptions runOpt;
    runOpt.events = &sessionEvents;
    TimingResult viaSession =
        s.simulate(MachineConfig{}, SpawnPolicy::postdoms(), runOpt);

    expectSameResult(priv, shrd);
    expectSameResult(priv, viaSession);
    EXPECT_EQ(priv, shrd);
    EXPECT_EQ(priv, viaSession);
    EXPECT_EQ(privEvents, shrdEvents);
    EXPECT_EQ(privEvents, sessionEvents);
    EXPECT_GT(priv.spawns, 0u);
    EXPECT_FALSE(privEvents.empty());
}

TEST(SweepEngine, ParallelForCoversAllIndicesAndRethrows)
{
    driver::SweepRunner runner(4);
    std::vector<std::atomic<int>> hits(64);
    runner.parallelFor(hits.size(),
                       [&](size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);

    EXPECT_THROW(
        runner.parallelFor(8,
                           [&](size_t i) {
                               if (i == 3)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
}

std::vector<stats::RunRecord>
toRecords(const std::vector<driver::SweepCell> &cells,
          const std::vector<driver::CellResult> &results)
{
    std::vector<stats::RunRecord> recs;
    for (size_t i = 0; i < cells.size(); ++i) {
        recs.push_back({cells[i].workload, cells[i].scale,
                        cells[i].label, results[i].sim});
    }
    return recs;
}

TEST(SweepEngine, JsonStatsExportIsByteIdenticalAcrossJobCounts)
{
    // The structured export must thread through the sweep engine
    // unchanged: a 4-thread sweep serializes to exactly the bytes
    // the serial sweep produces — compared cell by cell so a
    // mismatch names the offender, then on the whole document.
    const auto cells = grid();
    driver::SweepRunner serial(1);
    driver::SweepRunner parallel(4);
    const auto refRecs =
        toRecords(cells, serial.run(cells, /*report=*/false));
    const auto parRecs =
        toRecords(cells, parallel.run(cells, /*report=*/false));
    ASSERT_EQ(refRecs.size(), parRecs.size());

    for (size_t i = 0; i < refRecs.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                     cells[i].workload + "/" + cells[i].label + ")");
        EXPECT_EQ(stats::runToJson(parRecs[i]),
                  stats::runToJson(refRecs[i]));
    }
    EXPECT_EQ(stats::toJson(parRecs), stats::toJson(refRecs));
    EXPECT_EQ(stats::toCsv(parRecs), stats::toCsv(refRecs));

    // And the export carries the accounting identity for every
    // cell, so downstream consumers can rely on it.
    for (const auto &rec : parRecs) {
        EXPECT_EQ(rec.sim.slotTotal(),
                  rec.sim.cycles * rec.sim.issueWidth)
            << rec.workload << "/" << rec.label;
    }
}

TEST(SweepEngine, CsvRowsHaveOneValuePerHeaderColumn)
{
    // The header and the rows are written by separate loops over
    // the same fields; a field missing from either side shifts every
    // column after it.
    const auto cells = grid();
    driver::SweepRunner runner(2);
    const std::string csv = stats::toCsv(
        toRecords(cells, runner.run(cells, /*report=*/false)));
    auto columns = [](const std::string &line) {
        return std::count(line.begin(), line.end(), ',') + 1;
    };
    std::vector<std::string> lines;
    for (size_t at = 0, nl; (nl = csv.find('\n', at)) != csv.npos;
         at = nl + 1) {
        lines.push_back(csv.substr(at, nl - at));
    }
    ASSERT_EQ(lines.size(), cells.size() + 1);
    EXPECT_NE(lines[0].find(",dcacheMisses,"), std::string::npos);
    for (size_t i = 1; i < lines.size(); ++i)
        EXPECT_EQ(columns(lines[i]), columns(lines[0])) << lines[i];
}

TEST(SweepEngine, ParsePositiveDoubleRejectsGarbage)
{
    using driver::parsePositiveDouble;
    ASSERT_TRUE(parsePositiveDouble("1.5").has_value());
    EXPECT_DOUBLE_EQ(*parsePositiveDouble("1.5"), 1.5);
    EXPECT_DOUBLE_EQ(*parsePositiveDouble("0.05"), 0.05);

    EXPECT_FALSE(parsePositiveDouble(nullptr).has_value());
    EXPECT_FALSE(parsePositiveDouble("").has_value());
    EXPECT_FALSE(parsePositiveDouble("0").has_value());
    EXPECT_FALSE(parsePositiveDouble("-1").has_value());
    EXPECT_FALSE(parsePositiveDouble("abc").has_value());
    EXPECT_FALSE(parsePositiveDouble("1.5x").has_value());
    EXPECT_FALSE(parsePositiveDouble("nan").has_value());
    EXPECT_FALSE(parsePositiveDouble("inf").has_value());

    ASSERT_EQ(unsetenv("PF_BENCH_SCALE"), 0);
    EXPECT_DOUBLE_EQ(driver::scaleFromEnv(0.25), 0.25);
    ASSERT_EQ(setenv("PF_BENCH_SCALE", "0.5", 1), 0);
    EXPECT_DOUBLE_EQ(driver::scaleFromEnv(0.25), 0.5);
    ASSERT_EQ(unsetenv("PF_BENCH_SCALE"), 0);
}

TEST(SweepEngine, SweepIsWidthInvariant)
{
    // Workers claim `width` consecutive cells of the cost order at a
    // time; width 3 leaves a remainder claim smaller than the width.
    // Every result must still land at its cell index, unchanged.
    const auto cells = grid();
    auto hashAt = [&](int width,
                      std::vector<driver::CellResult> &results) {
        driver::SweepRunner runner(4, width);
        EXPECT_EQ(runner.batchWidth(), width);
        results = runner.run(cells, /*report=*/false);
        std::vector<stats::RunRecord> recs;
        for (size_t i = 0; i < cells.size(); ++i) {
            recs.push_back({cells[i].workload, cells[i].scale,
                            cells[i].label, results[i].sim});
        }
        return store::sha256Hex(stats::toJson(recs));
    };
    std::vector<driver::CellResult> ref;
    const std::string refHash = hashAt(1, ref);
    ASSERT_EQ(ref.size(), cells.size());
    for (int width : {3, 8}) {
        SCOPED_TRACE("width " + std::to_string(width));
        std::vector<driver::CellResult> out;
        EXPECT_EQ(hashAt(width, out), refHash);
        ASSERT_EQ(out.size(), ref.size());
        for (size_t i = 0; i < cells.size(); ++i) {
            SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                         cells[i].workload + "/" + cells[i].label +
                         ")");
            EXPECT_EQ(out[i].sim, ref[i].sim);
        }
    }
    // Baseline cells have no spawn source; policy cells keep theirs
    // inspectable.
    for (size_t i = 0; i < cells.size(); ++i) {
        bool baseline = cells[i].source.kind ==
            driver::SourceSpec::Kind::Baseline;
        EXPECT_EQ(ref[i].source == nullptr, baseline);
    }
}

TEST(SweepEngine, EveryCellReportsItsOwnWallTime)
{
    const auto cells = grid();
    driver::SweepRunner runner(2);
    const auto results = runner.run(cells, /*report=*/false);
    ASSERT_EQ(results.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_GT(results[i].wallSeconds, 0.0)
            << cells[i].workload << "/" << cells[i].label;
    }
}

TEST(SweepEngine, CostOrderRunsExpensiveCellsFirst)
{
    using driver::SourceSpec;
    const MachineConfig cfg;
    const auto statics = SourceSpec::statics(SpawnPolicy::postdoms());
    const std::vector<driver::SweepCell> cells = {
        {"a", 1.0, statics, cfg, "short static"},        // 0
        {"b", 1.0, SourceSpec::baseline(), cfg, "base"}, // 1
        {"b", 1.0, statics, cfg, "static"},              // 2
        {"b", 1.0, SourceSpec::recon(), cfg, "recon"},   // 3
        {"b", 1.0, SourceSpec::dmt(), cfg, "dmt"},       // 4
        {"b", 1.0, statics, cfg, "static again"},        // 5
        {"c", 1.0, statics, cfg, "long static"},         // 6
        {"a", 1.0, statics, cfg, "short again"},         // 7
    };
    const std::vector<size_t> lengths = {100, 1000, 1000, 1000,
                                         1000, 1000, 5000, 100};
    // The longest trace first; on one trace the dynamic sources
    // rank above static policies, which rank above the baseline;
    // equal costs keep declaration order (2 before 5, 0 before 7).
    EXPECT_EQ(driver::costOrder(cells, lengths),
              (std::vector<size_t>{6, 3, 4, 2, 5, 1, 0, 7}));
    EXPECT_TRUE(driver::costOrder({}, {}).empty());
}

TEST(SweepEngine, FirstDeclaredFailureIsReportedAtAnyJobCount)
{
    // With an integer latency longer than the cycle limit no result
    // ever arrives, so both hang cells run until the cycle limit. The
    // second runs first (a static policy outranks the baseline on
    // the same trace), but the error must name the first declared
    // cell whatever the job count. The last cell's workload does not
    // exist: its trace fails to build, which must fail that cell
    // only, not the trace pass before it.
    MachineConfig hang = MachineConfig::superscalar();
    hang.intLatency = 1'000'000'000;
    const std::vector<driver::SweepCell> cells = {
        {"mcf", 0.01, driver::SourceSpec::baseline(),
         MachineConfig::superscalar(), "fine"},
        {"mcf", 0.01, driver::SourceSpec::baseline(), hang,
         "hang-first"},
        {"mcf", 0.01, driver::SourceSpec::statics(SpawnPolicy::loop()),
         hang, "hang-second"},
        {"no-such-workload", 0.01, driver::SourceSpec::baseline(),
         MachineConfig::superscalar(), "missing"},
    };
    ASSERT_EQ(driver::costOrder(cells, {1, 1, 1, 0}),
              (std::vector<size_t>{2, 0, 1, 3}));
    for (int jobs : {1, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        driver::SweepRunner runner(jobs);
        try {
            runner.run(cells, /*report=*/false);
            FAIL() << "expected a cycle-limit error";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("cycle limit"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("\"hang-first\""), std::string::npos)
                << msg;
        }
    }
}

/** argv for the *FromArgs knob parsers. */
struct Argv
{
    std::vector<std::string> args;
    std::vector<char *> ptrs;

    explicit Argv(std::vector<std::string> a) : args(std::move(a))
    {
        for (std::string &s : args)
            ptrs.push_back(s.data());
    }
    int argc() const { return int(ptrs.size()); }
    char **argv() { return ptrs.data(); }
};

TEST(SweepEngine, KnobsParseFlagsInBothSpellings)
{
    Argv a({"bench", "--jobs", "3"});
    EXPECT_EQ(driver::jobsFromArgs(a.argc(), a.argv()), 3);
    Argv b({"bench", "--jobs=5"});
    EXPECT_EQ(driver::jobsFromArgs(b.argc(), b.argv()), 5);
    Argv none({"bench"});
    EXPECT_EQ(driver::jobsFromArgs(none.argc(), none.argv()),
              driver::defaultJobs());
    EXPECT_GE(driver::defaultJobs(), 1);
}

TEST(SweepEngineDeathTest, MalformedKnobsExitWithStatusTwo)
{
    EXPECT_EXIT(
        {
            Argv a({"bench", "--jobs", "abc"});
            driver::jobsFromArgs(a.argc(), a.argv());
        },
        ::testing::ExitedWithCode(2),
        "--jobs: expected a positive integer, got \"abc\"");
    EXPECT_EXIT(
        {
            Argv a({"bench", "--jobs=0"});
            driver::jobsFromArgs(a.argc(), a.argv());
        },
        ::testing::ExitedWithCode(2),
        "--jobs: expected a positive integer, got \"0\"");
    EXPECT_EXIT(
        {
            Argv a({"bench", "--jobs"});
            driver::jobsFromArgs(a.argc(), a.argv());
        },
        ::testing::ExitedWithCode(2), "--jobs: missing value");
    EXPECT_EXIT(
        {
            Argv a({"bench", "--jbos", "4"});
            driver::jobsFromArgs(a.argc(), a.argv());
        },
        ::testing::ExitedWithCode(2), "unknown argument \"--jbos\"");
    // Above the 4096 cap: rejected while parsing, before any worker
    // starts.
    EXPECT_EXIT(
        {
            Argv a({"bench", "--jobs=5000"});
            driver::jobsFromArgs(a.argc(), a.argv());
        },
        ::testing::ExitedWithCode(2),
        "--jobs: expected a positive integer, got \"5000\"");
    EXPECT_EXIT(
        {
            ::setenv("PF_BENCH_SCALE", "abc", 1);
            driver::scaleFromEnv(1.0);
        },
        ::testing::ExitedWithCode(2),
        "PF_BENCH_SCALE: expected a finite positive number, "
        "got \"abc\"");
    EXPECT_EXIT(driver::parseCount("--jobs", "8x"),
                ::testing::ExitedWithCode(2),
                "--jobs: expected a positive integer, got \"8x\"");
}

} // namespace
} // namespace polyflow
