/**
 * @file
 * The cycle pin: 19 run labels x 12 workloads at scale 0.04 against
 * tests/golden/cells-scale0.04.tsv, one row per cell with its cycles
 * and the SHA-256 of its stats::runToJson export, under every sweep
 * schedule. A mismatch names each moved cell; the grid test writes
 * what it measured to its working directory for scripts/repin.sh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
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

constexpr double kPinScale = 0.04;
constexpr const char *kMeasuredPins = "cells-scale0.04.tsv";

/** A cell's pin: its cycles and the SHA-256 of its exported record. */
struct Pin
{
    std::uint64_t cycles = 0;
    std::string sha;
};

/** Pins by (workload, label), in perfbench's reference row order. */
using Pins = std::map<std::pair<std::string, std::string>, Pin>;

/** The grid's labels in the groups the benches sweep together. Each
 *  group's schedule test below keeps the `Stages.Golden*` name the
 *  group's own golden had, so its test history carries over. Every
 *  label but `latency skew` is a run of the run table. */
const std::vector<std::string> kFig09Labels = {
    "superscalar", "loop", "loopFT", "procFT",
    "hammock",     "other", "postdoms"};
const std::vector<std::string> kDynamicSourceLabels = {"rec_pred", "dmt"};
const std::vector<std::string> kSpawnUnitLabels = {
    "no feedback", "no wrong-path ghosts", "neither"};
const std::vector<std::string> kSpawnFromAnyTaskLabels = {
    "spawn-from-any-task"};
const std::vector<std::string> kResourceLatencyLabels = {
    "tasks=1", "tasks=2", "divert=16", "divert=32", "rob=128",
    "latency skew"};
const std::vector<std::string> *const kLabelGroups[] = {
    &kFig09Labels, &kDynamicSourceLabels, &kSpawnUnitLabels,
    &kSpawnFromAnyTaskLabels, &kResourceLatencyLabels};

/** The golden's own run: postdoms under skewed latencies. */
const driver::RunSpec kLatencySkew = {
    "latency skew", driver::SourceSpec::statics(SpawnPolicy::postdoms()),
    {.divLatency = 20, .loadLatency = 4, .divertReleaseDelay = 4}};

/** Every workload under every label of the groups: Figure 9's seven,
 *  the two dynamic sources (they train while they run), and postdoms
 *  under the spawn-unit knobs, spawning from any task, and the narrow
 *  resource and latency-skew configs. */
std::vector<driver::SweepCell>
pinnedGrid()
{
    std::vector<driver::SweepCell> cells;
    for (const std::string &name : allWorkloadNames()) {
        for (const auto *group : kLabelGroups) {
            for (const std::string &label : *group) {
                const driver::RunSpec run = label == kLatencySkew.label
                    ? kLatencySkew
                    : driver::runByLabel(label).value();
                cells.push_back(
                    {name, kPinScale, run.source, run.config, label});
            }
        }
    }
    return cells;
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
 *  claim. The grid test runs the first, the label groups' schedule
 *  tests the rest. */
const Schedule kSchedules[] = {
    {4, 1, false}, {4, 1, true},  {1, 1, false},
    {1, 1, true},  {4, 3, false}, {4, 3, true},
};

/** Results of @p cells under @p schedule, in declaration order (a
 *  reversed grid's results are mapped back). */
std::vector<driver::CellResult>
runGrid(std::vector<driver::SweepCell> cells, const Schedule &s)
{
    if (s.reversed)
        std::reverse(cells.begin(), cells.end());
    auto results = driver::SweepRunner(s.jobs, s.width).run(cells, false);
    if (s.reversed)
        std::reverse(results.begin(), results.end());
    return results;
}

Pins
pinsOf(const std::vector<driver::SweepCell> &cells,
       const std::vector<driver::CellResult> &results)
{
    Pins pins;
    for (size_t i = 0; i < cells.size(); ++i) {
        const TimingResult &r = results[i].sim;
        pins[{cells[i].workload, cells[i].label}] = {
            r.cycles, store::sha256Hex(stats::runToJson(
                          {cells[i].workload, cells[i].scale,
                           cells[i].label, r}))};
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
    const auto cells = pinnedGrid();
    const auto results = runGrid(cells, kSchedules[0]);
    const Pins measured = pinsOf(cells, results);
    writePins(measured, kMeasuredPins);
    const std::string moved = diffPins(readPins(PF_GOLDEN_PINS), measured);
    EXPECT_TRUE(moved.empty())
        << moved << "(measured pins written to " << kMeasuredPins
        << "; scripts/repin.sh re-pins)";

    // The narrow divert queues must fill somewhere, or the pin says
    // nothing about entries held while the queue is full.
    bool divertFilled = false;
    for (size_t i = 0; i < cells.size(); ++i) {
        divertFilled |= cells[i].label.rfind("divert=", 0) == 0 &&
            results[i].sim.divertQueueFullStalls > 0;
    }
    EXPECT_TRUE(divertFilled);
}

/** The cells of @p labels match their pinned rows under every
 *  schedule but the grid test's. */
void
expectEveryScheduleMatches(const std::vector<std::string> &labels)
{
    const auto inGroup = [&](const std::string &label) {
        return std::find(labels.begin(), labels.end(), label) !=
            labels.end();
    };
    std::vector<driver::SweepCell> cells = pinnedGrid();
    std::erase_if(cells, [&](const auto &c) { return !inGroup(c.label); });
    Pins pinned = readPins(PF_GOLDEN_PINS);
    std::erase_if(pinned,
                  [&](const auto &row) { return !inGroup(row.first.second); });
    ASSERT_EQ(cells.size(), labels.size() * allWorkloadNames().size());
    for (size_t i = 1; i < std::size(kSchedules); ++i) {
        const Schedule &s = kSchedules[i];
        const std::string moved =
            diffPins(pinned, pinsOf(cells, runGrid(cells, s)));
        EXPECT_TRUE(moved.empty())
            << "jobs " << s.jobs << ", width " << s.width
            << (s.reversed ? ", reversed" : ", declared") << ":\n"
            << moved;
    }
}

TEST(Golden, LabelGroupsCoverTheGridOnce)
{
    std::vector<std::string> grouped;
    for (const auto *group : kLabelGroups)
        grouped.insert(grouped.end(), group->begin(), group->end());
    std::vector<std::string> labels;
    for (const driver::SweepCell &c : pinnedGrid()) {
        if (std::find(labels.begin(), labels.end(), c.label) ==
            labels.end())
            labels.push_back(c.label);
    }
    std::sort(grouped.begin(), grouped.end());
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(grouped, labels);
}

TEST(Stages, GoldenFig09StatsAreCycleIdenticalWhenBatched)
{
    expectEveryScheduleMatches(kFig09Labels);
}

TEST(Stages, GoldenDynamicSourcesAreWidthInvariant)
{
    expectEveryScheduleMatches(kDynamicSourceLabels);
}

TEST(Stages, GoldenSpawnUnitAblationIsWidthInvariant)
{
    expectEveryScheduleMatches(kSpawnUnitLabels);
}

TEST(Stages, GoldenSpawnFromAnyTaskIsWidthInvariant)
{
    expectEveryScheduleMatches(kSpawnFromAnyTaskLabels);
}

TEST(Stages, GoldenResourcesAndLatenciesAreScheduleInvariant)
{
    expectEveryScheduleMatches(kResourceLatencyLabels);
}

TEST(Runs, GoldenLabelsResolve)
{
    for (const auto *group : kLabelGroups) {
        for (const std::string &label : *group) {
            EXPECT_EQ(driver::runByLabel(label).has_value(),
                      label != kLatencySkew.label)
                << label;
        }
    }
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
