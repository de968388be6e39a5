/**
 * @file
 * The cycle pin: every run of the run table (driver::allRuns()) and
 * the golden's own `latency skew`, on all 12 workloads at scale 0.04,
 * against tests/golden/cells-scale0.04.tsv: one row per (workload,
 * label) with its cycles and the SHA-256 of its stats::runToJson
 * export, under every sweep schedule. A mismatch names each moved
 * row; the grid test writes what it measured to its working
 * directory for scripts/repin.sh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "polyflow.hh"
#include "stats/export.hh"
#include "store/sha256.hh"

namespace polyflow {
namespace {

using driver::RunSpec;

constexpr double kPinScale = 0.04;
constexpr const char *kMeasuredPins = "cells-scale0.04.tsv";

/** A row's pin: its cycles and the SHA-256 of its exported record. */
struct Pin
{
    std::uint64_t cycles = 0;
    std::string sha;
};

/** Pins by (workload, label), in perfbench's reference row order. */
using Pins = std::map<std::pair<std::string, std::string>, Pin>;

/** The golden's own run: postdoms under skewed latencies. */
const RunSpec kLatencySkew = {
    "latency skew", driver::SourceSpec::statics(SpawnPolicy::postdoms()),
    {.divLatency = 20, .loadLatency = 4, .divertReleaseDelay = 4}};

/** @p families, one after another. */
std::vector<RunSpec>
joined(std::initializer_list<std::vector<RunSpec>> families)
{
    std::vector<RunSpec> runs;
    for (const std::vector<RunSpec> &f : families)
        runs.insert(runs.end(), f.begin(), f.end());
    return runs;
}

/** Every pinned run: the run table's, then the golden's own. */
std::vector<RunSpec>
pinnedRuns()
{
    return joined({driver::allRuns(), {kLatencySkew}});
}

/** The rows of the ablation section titled @p title. */
const std::vector<RunSpec> &
section(const std::string &title)
{
    for (const driver::RunSection &s : driver::runTable().ablation) {
        if (s.title == title)
            return s.runs;
    }
    throw std::out_of_range("no ablation section " + title);
}

/** The schedule tests below, one per group of pinned runs. Each
 *  keeps the `Stages.Golden*` name its group's own golden had, so
 *  its test history carries over. */
enum Group {
    Fig09,
    DynamicSources,
    SpawnUnit,
    SpawnFromAnyTask,
    ResourcesAndLatencies,
    CombinationsAndExclusions,
};

/** Each group's runs, indexed by Group, taken from the run table's
 *  families and sections. */
const std::vector<std::vector<RunSpec>> &
scheduleGroups()
{
    static const std::vector<std::vector<RunSpec>> groups = [] {
        const driver::RunTable &t = driver::runTable();
        return std::vector<std::vector<RunSpec>>{
            joined({{t.superscalar}, t.individual}),
            t.dynamics,
            joined({section("spawn-unit mechanisms"),
                    section("max spawn distance")}),
            section("spawn source task (Section 6 extension)"),
            joined({section("task contexts"),
                    section("divert queue entries"),
                    section("reorder buffer entries"), {kLatencySkew}}),
            joined({t.combined, t.exclusions}),
        };
    }();
    return groups;
}

/** How the grid is run: sweep workers, cells a worker claims at a
 *  time, and whether the grid is declared back to front. */
struct Schedule
{
    int jobs = 0, width = 0;
    bool reversed = false;
};

/** Every schedule the pin must hold under. The cost order makes each
 *  run the cells in a different sequence; width 3 leaves a remainder
 *  claim. The grid test runs the first, the schedule tests the
 *  rest. */
const Schedule kSchedules[] = {
    {4, 1, false}, {4, 1, true},  {1, 1, false},
    {1, 1, true},  {4, 3, false}, {4, 3, true},
};

/** @p runs on every workload at the pin scale, run under @p s:
 *  declared workload by workload in run order, or all back to front.
 *  The Grid gives rows that share a source and config one cell. */
driver::Grid
runGrid(const std::vector<RunSpec> &runs, const Schedule &s)
{
    const std::vector<std::string> names = allWorkloadNames();
    const size_t n = names.size() * runs.size();
    driver::Grid g;
    for (size_t k = 0; k < n; ++k) {
        const size_t i = s.reversed ? n - 1 - k : k;
        g.add(names[i / runs.size()], kPinScale, runs[i % runs.size()]);
    }
    driver::SweepRunner runner(s.jobs, s.width);
    g.run(runner, false);
    return g;
}

/** The pin of each of @p runs on each workload, from the run grid
 *  @p g, each row's record labelled with its own run. */
Pins
pinsOf(const driver::Grid &g, const std::vector<RunSpec> &runs)
{
    Pins pins;
    for (const std::string &name : allWorkloadNames()) {
        for (const RunSpec &run : runs) {
            const stats::RunRecord r =
                g.record(g.cell(name, run.label), run.label);
            pins[{name, run.label}] = {
                r.sim.cycles, store::sha256Hex(stats::runToJson(r))};
        }
    }
    return pins;
}

/** Parse a pin file: tab-separated workload, label, cycles, sha;
 *  lines starting with '#' are comments. */
Pins
readPins(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    Pins pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string workload, label, cycles, sha;
        if (!std::getline(row, workload, '\t') ||
            !std::getline(row, label, '\t') ||
            !std::getline(row, cycles, '\t') || !std::getline(row, sha) ||
            sha.size() != 64)
            throw std::runtime_error(path + ": malformed row: " + line);
        pins[{workload, label}] = {std::stoull(cycles), sha};
    }
    return pins;
}

void
writePins(const Pins &pins, const std::string &path)
{
    std::ofstream out(path);
    out << "# workload label cycles sha256(stats::runToJson)\n";
    for (const auto &[key, pin] : pins)
        out << key.first << '\t' << key.second << '\t' << pin.cycles
            << '\t' << pin.sha << '\n';
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** One line per cell that differs, `workload/label: what`, in row
 *  order; empty when @p measured equals @p pinned. */
std::string
diffPins(const Pins &pinned, const Pins &measured)
{
    Pins rows = measured;
    rows.insert(pinned.begin(), pinned.end());
    std::string out;
    for (const auto &[key, unused] : rows) {
        const auto was = pinned.find(key);
        const auto now = measured.find(key);
        std::string what;
        if (was == pinned.end())
            what = "no pinned row, measured " +
                std::to_string(now->second.cycles) + " cycles";
        else if (now == measured.end())
            what = "pinned row (" + std::to_string(was->second.cycles) +
                " cycles) matches no cell";
        else if (was->second.cycles != now->second.cycles)
            what = "cycles " + std::to_string(was->second.cycles) +
                " → " + std::to_string(now->second.cycles);
        else if (was->second.sha != now->second.sha)
            what = "stats differ";
        if (!what.empty())
            out += key.first + "/" + key.second + ": " + what + "\n";
    }
    return out;
}

TEST(Golden, CellsMatchThePinFile)
{
    const std::vector<RunSpec> runs = pinnedRuns();
    const driver::Grid g = runGrid(runs, kSchedules[0]);
    // Six ablation rows run postdoms's own config and share its cell.
    EXPECT_EQ(g.cells().size(),
              (runs.size() - 6) * allWorkloadNames().size());
    const Pins measured = pinsOf(g, runs);
    writePins(measured, kMeasuredPins);
    const std::string moved = diffPins(readPins(PF_GOLDEN_PINS), measured);
    EXPECT_TRUE(moved.empty())
        << moved << "(measured pins written to " << kMeasuredPins
        << "; scripts/repin.sh re-pins)";

    // The narrow divert queues must fill somewhere, or the pin says
    // nothing about entries held while the queue is full.
    bool divertFilled = false;
    for (size_t i = 0; i < g.cells().size(); ++i) {
        divertFilled |= g.cells()[i].label.rfind("divert=", 0) == 0 &&
            g.results()[i].sim.divertQueueFullStalls > 0;
    }
    EXPECT_TRUE(divertFilled);
}

/** The rows of @p group match their pinned rows under every
 *  schedule but the grid test's. */
void
expectEveryScheduleMatches(Group group)
{
    const std::vector<RunSpec> &runs = scheduleGroups().at(group);
    Pins pinned = readPins(PF_GOLDEN_PINS);
    std::erase_if(pinned, [&](const auto &row) {
        return std::none_of(runs.begin(), runs.end(), [&](const RunSpec &r) {
            return r.label == row.first.second;
        });
    });
    ASSERT_EQ(pinned.size(), runs.size() * allWorkloadNames().size());
    for (size_t i = 1; i < std::size(kSchedules); ++i) {
        const Schedule &s = kSchedules[i];
        const std::string moved =
            diffPins(pinned, pinsOf(runGrid(runs, s), runs));
        EXPECT_TRUE(moved.empty())
            << "jobs " << s.jobs << ", width " << s.width
            << (s.reversed ? ", reversed" : ", declared") << ":\n"
            << moved;
    }
}

TEST(Golden, LabelGroupsCoverTheGridOnce)
{
    // Each pinned run is in exactly one schedule test, and no
    // schedule test checks a run the grid does not pin.
    std::map<std::string, int> grouped, once;
    for (const std::vector<RunSpec> &group : scheduleGroups()) {
        for (const RunSpec &run : group)
            ++grouped[run.label];
    }
    for (const RunSpec &run : pinnedRuns())
        once[run.label] = 1;
    EXPECT_EQ(grouped, once);
}

TEST(Stages, GoldenFig09StatsAreCycleIdenticalWhenBatched)
{
    expectEveryScheduleMatches(Fig09);
}

TEST(Stages, GoldenDynamicSourcesAreWidthInvariant)
{
    expectEveryScheduleMatches(DynamicSources);
}

TEST(Stages, GoldenSpawnUnitAblationIsWidthInvariant)
{
    expectEveryScheduleMatches(SpawnUnit);
}

TEST(Stages, GoldenSpawnFromAnyTaskIsWidthInvariant)
{
    expectEveryScheduleMatches(SpawnFromAnyTask);
}

TEST(Stages, GoldenResourcesAndLatenciesAreScheduleInvariant)
{
    expectEveryScheduleMatches(ResourcesAndLatencies);
}

TEST(Stages, GoldenCombinationsAndExclusionsAreScheduleInvariant)
{
    expectEveryScheduleMatches(CombinationsAndExclusions);
}

TEST(Golden, ComparerNamesMissingExtraAndMovedCells)
{
    const Pins measured = {
        {{"gcc", "dmt"}, {200, std::string(64, 'b')}},
        {{"gcc", "loop"}, {100, std::string(64, 'a')}},
        {{"mcf", "divert=16"}, {300, std::string(64, 'c')}},
        {{"mcf", "latency skew"}, {400, std::string(64, 'd')}},
    };
    EXPECT_EQ(diffPins(measured, measured), "");

    Pins pinned = measured;
    pinned.erase({"gcc", "dmt"});
    pinned[{"bzip2", "rob=128"}] = {500, std::string(64, 'e')};
    pinned[{"mcf", "divert=16"}].cycles = 299;
    pinned[{"mcf", "latency skew"}].sha = std::string(64, 'f');
    writePins(pinned, "comparer-pins.tsv");
    EXPECT_EQ(diffPins(readPins("comparer-pins.tsv"), measured),
              "bzip2/rob=128: pinned row (500 cycles) matches no cell\n"
              "gcc/dmt: no pinned row, measured 200 cycles\n"
              "mcf/divert=16: cycles 299 → 300\n"
              "mcf/latency skew: stats differ\n");
}

} // namespace
} // namespace polyflow
