/**
 * @file
 * Cycle-accounting invariants over the whole workload suite.
 *
 * Every (cycle x issue-slot) of every run must be attributed to
 * exactly one SlotBucket, which is machine-checked here as the
 * accounting identity
 *
 *     sum(slots) == cycles * issueWidth
 *
 * for all 12 workloads under the superscalar baseline, the postdoms
 * and loop static policies, and the dynamic reconvergence predictor
 * (rec_pred). Task bookkeeping must be self-consistent (every spawn
 * retires exactly once: tasksRetired == spawns + 1; tasksSquashed
 * counts re-execution events of live tasks, which later retire),
 * and a squash may never touch committed work — squashed task
 * ranges never appear in the commit stream, checked through the
 * TaskEvent commit frontier.
 */

#include <gtest/gtest.h>

#include "polyflow.hh"

namespace polyflow {
namespace {

constexpr double kScale = 0.04;

/** The accounting identity plus basic slot sanity for one run. */
void
checkSlotInvariants(const TimingResult &r, std::uint64_t expectWidth)
{
    EXPECT_EQ(r.issueWidth, expectWidth) << r.policyName;
    EXPECT_EQ(r.slotTotal(), r.cycles * r.issueWidth)
        << r.policyName;

    // The final partial cycle (which commits the last instructions
    // without advancing the cycle counter) is not accounted, so the
    // committed bucket is instrs minus that cycle's commits.
    std::uint64_t committed =
        r.slots[static_cast<int>(SlotBucket::Committed)];
    EXPECT_LT(committed, r.instrs) << r.policyName;
    EXPECT_GE(committed + r.issueWidth, r.instrs) << r.policyName;
}

TEST(Accounting, IdentityHoldsOnEveryWorkloadAndPolicy)
{
    driver::Grid grid;
    for (const std::string &name : allWorkloadNames()) {
        for (const char *label :
             {"superscalar", "postdoms", "loop", "rec_pred"})
            grid.add(name, kScale, *driver::runByLabel(label));
    }

    driver::SweepRunner runner(4);
    grid.run(runner, /*report=*/false);
    const std::vector<driver::SweepCell> &cells = grid.cells();
    ASSERT_EQ(grid.results().size(), cells.size());

    for (size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].workload + "/" + cells[i].label);
        const TimingResult &r = grid.results()[i].sim;
        checkSlotInvariants(
            r,
            std::uint64_t(cells[i].config.pipelineWidth));

        // Task bookkeeping: the root task plus every spawned task
        // retires exactly once. Squashes re-execute a live task
        // (they do not terminate it), so they do not change the
        // retirement count.
        EXPECT_EQ(r.tasksRetired, r.spawns + 1);
        std::uint64_t byKind = 0;
        for (int k = 0; k < numSpawnKinds; ++k)
            byKind += r.spawnsByKind[k];
        EXPECT_EQ(byKind, r.spawns);

        // The baseline must not spawn, divert cross-task work, or
        // squash.
        if (cells[i].label == "superscalar") {
            EXPECT_EQ(r.spawns, 0u);
            EXPECT_EQ(r.tasksSquashed, 0u);
            EXPECT_EQ(
                r.slots[static_cast<int>(
                    SlotBucket::SquashRefetch)],
                0u);
        }
    }
}

TEST(Accounting, SquashedRangesNeverAppearInCommitStream)
{
    // Event-level check on workloads/policies that actually squash:
    // at every Squash event, the commit frontier must not have
    // entered the squashed range (committed instructions are
    // architecturally final).
    std::uint64_t totalSquashes = 0;
    for (const char *name : {"twolf", "gcc", "vpr.route"}) {
        std::vector<TaskEvent> events;
        TimingResult res =
            Session::open(name, kScale)
                .simulate(*driver::runByLabel("postdoms"),
                          {.events = &events});
        checkSlotInvariants(res, 8);

        std::uint64_t squashes = 0;
        for (const TaskEvent &e : events) {
            if (e.kind != TaskEvent::Kind::Squash)
                continue;
            ++squashes;
            EXPECT_LE(e.commitFrontier, e.begin) << name;
        }
        EXPECT_EQ(squashes, res.tasksSquashed) << name;
        totalSquashes += squashes;
    }
    // The check must have had something to bite on.
    EXPECT_GT(totalSquashes, 0u);
}

TEST(Accounting, BucketNamesAreStableAndDistinct)
{
    // Export formats and the report tool key on these names;
    // renaming one silently breaks downstream CSV/JSON consumers.
    const std::vector<std::string> expected = {
        "committed",      "fetch-stall:mispredict",
        "fetch-stall:icache", "divert-wait",
        "scheduler-full", "rob-full",
        "squash-refetch", "no-task",
        "drain",
    };
    ASSERT_EQ(static_cast<int>(expected.size()), numSlotBuckets);
    for (int b = 0; b < numSlotBuckets; ++b)
        EXPECT_EQ(slotBucketName(static_cast<SlotBucket>(b)),
                  expected[b]);
}

TEST(Accounting, NarrowMachineKeepsIdentity)
{
    // The identity is per-width, not an artifact of width 8.
    Session s = Session::open("mcf", kScale);
    const auto postdoms = driver::SourceSpec::statics(SpawnPolicy::postdoms());
    for (int width : {1, 2, 4}) {
        MachineConfig cfg;
        cfg.pipelineWidth = width;
        std::string label = "w";
        label += std::to_string(width);
        checkSlotInvariants(s.simulate({label, postdoms, cfg}),
                            std::uint64_t(width));
    }
}

} // namespace
} // namespace polyflow
