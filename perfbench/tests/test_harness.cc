/**
 * @file
 * Tests of the benchmark harness's own logic: medians, span self
 * time, the pinned-reference check, the seed permutation and the
 * batch grouping the per-layer metrics rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "isa/functional_sim.hh"
#include "polyflow.hh"
#include "reference.hh"
#include "spans.hh"
#include "summary.hh"
#include "workload.hh"

using namespace pfbench;
using polyflow::TimingResult;

TEST(Summary, MedianOfOddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Summary, JsonNumberKeepsEveryDigit)
{
    for (double v : {0.1, 1.0 / 3.0, 123456789.125, 2.5e-9}) {
        std::string s = jsonNumber(v);
        EXPECT_EQ(std::stod(s), v) << s;
    }
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    // Parent [0, 100]; children overlap ([10, 30] and [20, 50], as on
    // two workers) and one runs past the parent's end ([90, 120]).
    std::vector<Span> spans = {
        {"root", 0, 100, -1},
        {"a", 10, 30, 0},
        {"b", 20, 50, 0},
        {"c", 90, 120, 0},
        {"d", 12, 18, 1},
    };
    std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20 - 6);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 6);
}

TEST(Spans, TracerSumsSelfTimePerLayer)
{
    Tracer t;
    {
        Scope root(t, "bench.rep", -1);
        for (int i = 0; i < 3; ++i) {
            Scope s(t, "store.load", root.id());
            volatile double x = 0;
            for (int k = 0; k < 20000; ++k)
                x = x + k;
        }
    }
    auto self = t.selfSecondsByLayer();
    ASSERT_EQ(self.size(), 2u);
    EXPECT_GT(self["store.load"], 0.0);
    EXPECT_GE(self["bench.rep"], 0.0);
}

namespace {

/** One real cell: twolf's superscalar baseline at a tiny scale. */
TimingResult
realCell()
{
    polyflow::Workload w = polyflow::buildWorkload("twolf", 0.02);
    polyflow::FunctionalOptions opt;
    opt.recordTrace = true;
    polyflow::FunctionalResult f = polyflow::runFunctional(w.prog, opt);
    return polyflow::runTiming(polyflow::MachineConfig::superscalar(),
                               f.trace, nullptr, "superscalar");
}

} // namespace

TEST(Reference, CatchesAOneCyclePerturbation)
{
    const TimingResult good = realCell();
    Reference ref;
    ref.add("twolf", 0.02, good);
    EXPECT_EQ(ref.check("twolf", 0.02, good), "");

    // One more cycle, with the extra issue slots booked so the
    // accounting identity still holds: only the pin can catch it.
    TimingResult longer = good;
    longer.cycles += 1;
    longer.slots[size_t(polyflow::SlotBucket::Drain)] += good.issueWidth;
    EXPECT_NE(ref.check("twolf", 0.02, longer), "");

    // Same cycles, one counter off by one: the digest catches it.
    TimingResult skewed = good;
    skewed.icacheMisses += 1;
    EXPECT_NE(ref.check("twolf", 0.02, skewed), "");

    // A broken accounting identity fails before the pin is read.
    TimingResult broken = good;
    broken.slots[0] += 1;
    EXPECT_EQ(ref.check("twolf", 0.02, broken),
              "sum(slots) != cycles x issueWidth");

    EXPECT_EQ(ref.check("mcf", 0.02, good), "no pinned reference");
}

TEST(Reference, RoundTripsThroughItsFile)
{
    const TimingResult good = realCell();
    Reference ref;
    ref.add("twolf", 0.02, good);
    auto dir = std::filesystem::path(testing::TempDir());
    auto path = referencePath(dir, 0.02);
    ref.write(path);
    std::optional<Reference> back = Reference::load(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->size(), 1u);
    EXPECT_EQ(back->check("twolf", 0.02, good), "");
    std::filesystem::remove(path);
    EXPECT_FALSE(Reference::load(path).has_value());
}

TEST(Workloads, SeedAndRepetitionNameOnePermutation)
{
    const size_t n = lineupCells(0.25).size();
    EXPECT_EQ(n, 108u);
    auto a = declarationOrder(n, 1, 0);
    EXPECT_EQ(a, declarationOrder(n, 1, 0));
    EXPECT_NE(a, declarationOrder(n, 1, 1));
    EXPECT_NE(a, declarationOrder(n, 2, 0));
    std::vector<size_t> identity(n);
    for (size_t i = 0; i < n; ++i)
        identity[i] = i;
    EXPECT_NE(a, identity);
    std::sort(a.begin(), a.end());
    EXPECT_EQ(a, identity);
}

TEST(Workloads, BatchesFollowTheSweepGrouping)
{
    auto cells = lineupCells(0.25);
    auto batches = sweepBatches(cells, 8, false);
    // Per workload: one superscalar batch and one full default-config
    // batch of six static policies, rec_pred and dmt.
    ASSERT_EQ(batches.size(), 24u);
    int full = 0, single = 0;
    for (const auto &b : batches) {
        if (b.size() == 8)
            ++full;
        else if (b.size() == 1)
            ++single;
    }
    EXPECT_EQ(full, 12);
    EXPECT_EQ(single, 12);
    // Split by source kind: superscalar, static (6), rec_pred, dmt.
    EXPECT_EQ(sweepBatches(cells, 8, true).size(), 48u);
    // Width 1 runs one machine per batch.
    EXPECT_EQ(sweepBatches(cells, 1, false).size(), 108u);
}

TEST(Workloads, OccupancyIsLiveOverAllocatedMachineCycles)
{
    std::vector<TimingResult> r(3);
    r[0].cycles = 100;
    r[1].cycles = 50;
    r[2].cycles = 10;
    // Batch {0, 1}: 150 live of 200 slots; batch {2}: 10 of 10.
    EXPECT_DOUBLE_EQ(batchOccupancy({{0, 1}, {2}}, r), 160.0 / 210.0);
}
