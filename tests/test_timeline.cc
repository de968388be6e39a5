/**
 * @file
 * Timeline-consistency tests for the TaskEvent stream.
 *
 * The timing simulator's task timeline must be a faithful journal
 * of the task spawn unit: events appear in cycle order, every
 * spawned task's lifetime is bracketed by exactly one Spawn and
 * exactly one Retire (squashes are interior re-execution events of
 * a live task, never of a retired or unknown one), and the retired
 * task ranges partition the committed trace exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "polyflow.hh"

namespace polyflow {
namespace {

constexpr double kScale = 0.04;

struct TimelineRun
{
    std::vector<TaskEvent> events;
    TimingResult res;
    std::uint64_t traceSize = 0;
};

TimelineRun
runWithTimeline(const std::string &name, bool dynamicSource)
{
    Session s = Session::open(name, kScale);
    TimelineRun out;
    out.traceSize = s.trace().size();
    out.res = s.simulate(
        *driver::runByLabel(dynamicSource ? "rec_pred" : "postdoms"),
        {.events = &out.events});
    return out;
}

void
checkTimeline(const TimelineRun &run)
{
    const auto &events = run.events;

    // The stream is cycle-monotonic (globally, hence also per
    // task), and the commit frontier never moves backwards.
    for (size_t i = 1; i < events.size(); ++i) {
        EXPECT_GE(events[i].cycle, events[i - 1].cycle)
            << "event " << i;
        EXPECT_GE(events[i].commitFrontier,
                  events[i - 1].commitFrontier)
            << "event " << i;
    }

    // Lifetime brackets. Task identity is its begin index: task
    // ranges are disjoint and a trace index is only ever the start
    // of one task.
    std::set<std::uint32_t> open;   // spawned, not yet retired
    std::map<std::uint32_t, std::uint32_t> retired;  // begin -> end
    std::uint64_t spawns = 0, squashes = 0;
    for (const TaskEvent &e : events) {
        switch (e.kind) {
          case TaskEvent::Kind::Spawn:
            ++spawns;
            EXPECT_TRUE(open.insert(e.begin).second)
                << "double spawn of begin " << e.begin;
            EXPECT_FALSE(retired.count(e.begin))
                << "spawn of retired begin " << e.begin;
            // The spawn target lies beyond everything committed.
            EXPECT_LT(e.commitFrontier, e.begin);
            EXPECT_LT(e.begin, e.end);
            EXPECT_EQ(e.diverted, 0u);
            break;
          case TaskEvent::Kind::Squash:
            ++squashes;
            // Only live tasks (the root, begin 0, never appears:
            // the head task cannot violate).
            EXPECT_TRUE(open.count(e.begin))
                << "squash of unknown/retired begin " << e.begin;
            // Committed work is final; a squash never reaches it.
            EXPECT_LE(e.commitFrontier, e.begin);
            // Diverted instructions of the squashed incarnation
            // are bounded by its range.
            EXPECT_LE(e.diverted, e.end - e.begin);
            break;
          case TaskEvent::Kind::Retire:
            if (e.begin == 0) {
                // Root task: no Spawn event exists for it.
                EXPECT_FALSE(retired.count(0u));
            } else {
                EXPECT_TRUE(open.count(e.begin))
                    << "retire without spawn, begin " << e.begin;
                open.erase(e.begin);
            }
            EXPECT_TRUE(
                retired.emplace(e.begin, e.end).second)
                << "double retire of begin " << e.begin;
            // Retirement happens exactly when the commit frontier
            // reaches the task's end.
            EXPECT_EQ(e.commitFrontier, e.end);
            EXPECT_LE(e.diverted, e.end - e.begin);
            break;
        }
    }

    // Every Spawn was closed by exactly one Retire.
    EXPECT_TRUE(open.empty())
        << open.size() << " spawned tasks never retired";
    EXPECT_EQ(retired.size(), spawns + 1);  // + the root task
    EXPECT_EQ(spawns, run.res.spawns);
    EXPECT_EQ(squashes, run.res.tasksSquashed);
    EXPECT_EQ(retired.size(), run.res.tasksRetired);

    // Retired ranges partition [0, trace.size()): std::map is
    // begin-sorted, so consecutive ranges must chain exactly.
    std::uint64_t expectBegin = 0;
    for (const auto &[begin, end] : retired) {
        EXPECT_EQ(begin, expectBegin);
        EXPECT_LT(begin, end);
        expectBegin = end;
    }
    EXPECT_EQ(expectBegin, run.traceSize);
}

TEST(Timeline, PostdomsTwolf)
{
    TimelineRun run = runWithTimeline("twolf", false);
    EXPECT_GT(run.res.spawns, 0u);
    checkTimeline(run);
}

TEST(Timeline, PostdomsGcc)
{
    TimelineRun run = runWithTimeline("gcc", false);
    EXPECT_GT(run.res.spawns, 0u);
    checkTimeline(run);
}

TEST(Timeline, ReconPredictorTwolf)
{
    TimelineRun run = runWithTimeline("twolf", true);
    checkTimeline(run);
}

TEST(Timeline, SuperscalarHasBareTimeline)
{
    // The baseline never spawns: its timeline is exactly one Retire
    // of the whole trace.
    Session s = Session::open("mcf", kScale);
    std::vector<TaskEvent> events;
    TimingResult res =
        s.simulate(driver::runTable().superscalar, {.events = &events});

    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, TaskEvent::Kind::Retire);
    EXPECT_EQ(events[0].begin, 0u);
    EXPECT_EQ(events[0].end, s.trace().size());
    EXPECT_EQ(res.tasksRetired, 1u);
}

} // namespace
} // namespace polyflow
