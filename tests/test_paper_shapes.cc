/**
 * @file
 * Regression tests for the paper's qualitative results — the
 * "shape" EXPERIMENTS.md reports. Everything here is deterministic
 * (fixed seeds, fixed scale), so these lock in the reproduction:
 * if a model or workload change breaks a paper claim, a test fails.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "polyflow.hh"

namespace polyflow {
namespace {

constexpr double shapeScale = 0.25;

/** The superscalar, the Figure 9 lineup and the widest combination
 *  on every workload, run once for every test. */
class PaperShapes : public ::testing::Test
{
  protected:
    static const driver::Grid &
    grid()
    {
        static const driver::Grid g = [] {
            driver::Grid g;
            for (const std::string &name : allWorkloadNames()) {
                for (const char *label :
                     {"superscalar", "loop", "loopFT", "procFT", "hammock",
                      "other", "postdoms", "loop+procFT+loopFT"})
                    g.add(name, shapeScale, *driver::runByLabel(label));
            }
            driver::SweepRunner runner;
            g.run(runner, false);
            return g;
        }();
        return g;
    }

    static double
    speedup(const std::string &workload, const std::string &policy)
    {
        return grid().speedups(workload, {policy}).front();
    }

    static double
    ssIpc(const std::string &workload)
    {
        return grid().at(workload, "superscalar").sim.ipc();
    }

    static double
    avg(const std::string &policy)
    {
        double s = 0;
        for (const std::string &n : allWorkloadNames())
            s += speedup(n, policy);
        return s / double(allWorkloadNames().size());
    }
};

TEST_F(PaperShapes, PostdomsBeatsEveryIndividualHeuristicOnAverage)
{
    double pd = avg("postdoms");
    for (const char *pol :
         {"loop", "loopFT", "procFT", "hammock", "other"}) {
        EXPECT_GT(pd, avg(pol)) << pol;
    }
}

TEST_F(PaperShapes, PostdomsBeatsTheCombinationOnAverage)
{
    EXPECT_GE(avg("postdoms"), avg("loop+procFT+loopFT"));
}

TEST_F(PaperShapes, PostdomsPositiveAlmostEverywhere)
{
    int positive = 0;
    for (const std::string &n : allWorkloadNames())
        positive += speedup(n, "postdoms") > 0;
    EXPECT_GE(positive, 11) << "postdoms should pay off broadly";
}

TEST_F(PaperShapes, ApplicationsVaryWidelyPerHeuristic)
{
    // Each individual heuristic must be near-zero somewhere and
    // strong somewhere else (paper Section 4.1).
    for (const char *pol : {"loop", "loopFT", "procFT", "hammock"}) {
        double lo = 1e9, hi = -1e9;
        for (const std::string &n : allWorkloadNames()) {
            lo = std::min(lo, speedup(n, pol));
            hi = std::max(hi, speedup(n, pol));
        }
        EXPECT_LT(lo, 5.0) << pol;
        EXPECT_GT(hi, 15.0) << pol;
    }
}

TEST_F(PaperShapes, ProcFTIsVortexsBestHeuristic)
{
    double p = speedup("vortex", "procFT");
    EXPECT_GT(p, 15.0);
    for (const char *pol : {"loop", "loopFT", "hammock", "other"})
        EXPECT_GT(p, speedup("vortex", pol)) << pol;
}

TEST_F(PaperShapes, HammocksCarryMcf)
{
    EXPECT_GT(speedup("mcf", "hammock"), 40.0);
    EXPECT_GT(speedup("mcf", "hammock"), speedup("mcf", "procFT"));
}

TEST_F(PaperShapes, OtherMattersOnlyWhereIndirectJumpsLive)
{
    EXPECT_GT(speedup("perlbmk", "other"), 1.0);
    EXPECT_GT(speedup("crafty", "other"), 1.0);
    // Benchmarks without indirect jumps see nothing from "other".
    EXPECT_NEAR(speedup("gzip", "other"), 0.0, 0.5);
    EXPECT_NEAR(speedup("twolf", "other"), 0.0, 0.5);
}

TEST_F(PaperShapes, TwolfRespondsToLoopStructure)
{
    EXPECT_GT(speedup("twolf", "loop"), 30.0);
    EXPECT_GT(speedup("twolf", "loopFT"), 30.0);
    EXPECT_GT(speedup("twolf", "postdoms"), 30.0);
}

TEST_F(PaperShapes, PredictableBenchmarksGainLittle)
{
    // gzip and bzip2 have high baseline IPCs; every policy's gain
    // stays modest (paper: small bars across the board).
    for (const char *n : {"gzip", "bzip2"}) {
        EXPECT_GT(ssIpc(n), 2.0) << n;
        EXPECT_LT(speedup(n, "postdoms"), 35.0) << n;
    }
}

TEST_F(PaperShapes, SuperscalarIpcsInPlausibleBand)
{
    for (const std::string &n : allWorkloadNames()) {
        EXPECT_GT(ssIpc(n), 0.5) << n;
        EXPECT_LT(ssIpc(n), 6.5) << n;
    }
}

} // namespace
} // namespace polyflow
