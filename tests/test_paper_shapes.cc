/**
 * @file
 * Regression tests for the paper's qualitative results — the
 * "shape" EXPERIMENTS.md reports. Everything here is deterministic
 * (fixed seeds, fixed scale), so these lock in the reproduction:
 * if a model or workload change breaks a paper claim, a test fails.
 */

#include <gtest/gtest.h>

#include <map>

#include "polyflow.hh"

namespace polyflow {
namespace {

constexpr double shapeScale = 0.25;

/** Cached per-benchmark speedups for the whole policy lineup. */
class PaperShapes : public ::testing::Test
{
  protected:
    struct Bench
    {
        std::map<std::string, double> speedup;
        double ssIpc = 0;
    };

    static const std::map<std::string, Bench> &
    all()
    {
        static const std::map<std::string, Bench> data = [] {
            const std::vector<SpawnPolicy> policies = {
                SpawnPolicy::loop(),      SpawnPolicy::loopFT(),
                SpawnPolicy::procFT(),    SpawnPolicy::hammock(),
                SpawnPolicy::other(),     SpawnPolicy::postdoms(),
                SpawnPolicy::loopProcFTLoopFT(),
            };
            std::vector<driver::SweepCell> cells;
            for (const std::string &name : allWorkloadNames()) {
                cells.push_back({name, shapeScale,
                                 driver::SourceSpec::baseline(),
                                 MachineConfig::superscalar(), "ss"});
                for (const SpawnPolicy &pol : policies)
                    cells.push_back({name, shapeScale,
                                     driver::SourceSpec::statics(pol),
                                     MachineConfig{}, pol.name});
            }
            const auto results = driver::SweepRunner().run(cells, false);
            std::map<std::string, Bench> out;
            const TimingResult *base = nullptr;
            for (size_t i = 0; i < cells.size(); ++i) {
                const TimingResult &r = results[i].sim;
                Bench &b = out[cells[i].workload];
                if (cells[i].label == "ss") {
                    base = &r;
                    b.ssIpc = r.ipc();
                } else {
                    b.speedup[cells[i].label] = r.speedupOver(*base);
                }
            }
            return out;
        }();
        return data;
    }

    static double
    avg(const std::string &policy)
    {
        double s = 0;
        for (const auto &[n, b] : all())
            s += b.speedup.at(policy);
        return s / double(all().size());
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
    for (const auto &[n, b] : all())
        positive += b.speedup.at("postdoms") > 0;
    EXPECT_GE(positive, 11) << "postdoms should pay off broadly";
}

TEST_F(PaperShapes, ApplicationsVaryWidelyPerHeuristic)
{
    // Each individual heuristic must be near-zero somewhere and
    // strong somewhere else (paper Section 4.1).
    for (const char *pol : {"loop", "loopFT", "procFT", "hammock"}) {
        double lo = 1e9, hi = -1e9;
        for (const auto &[n, b] : all()) {
            lo = std::min(lo, b.speedup.at(pol));
            hi = std::max(hi, b.speedup.at(pol));
        }
        EXPECT_LT(lo, 5.0) << pol;
        EXPECT_GT(hi, 15.0) << pol;
    }
}

TEST_F(PaperShapes, ProcFTIsVortexsBestHeuristic)
{
    const Bench &v = all().at("vortex");
    double p = v.speedup.at("procFT");
    EXPECT_GT(p, 15.0);
    for (const char *pol : {"loop", "loopFT", "hammock", "other"})
        EXPECT_GT(p, v.speedup.at(pol)) << pol;
}

TEST_F(PaperShapes, HammocksCarryMcf)
{
    const Bench &m = all().at("mcf");
    EXPECT_GT(m.speedup.at("hammock"), 40.0);
    EXPECT_GT(m.speedup.at("hammock"), m.speedup.at("procFT"));
}

TEST_F(PaperShapes, OtherMattersOnlyWhereIndirectJumpsLive)
{
    EXPECT_GT(all().at("perlbmk").speedup.at("other"), 1.0);
    EXPECT_GT(all().at("crafty").speedup.at("other"), 1.0);
    // Benchmarks without indirect jumps see nothing from "other".
    EXPECT_NEAR(all().at("gzip").speedup.at("other"), 0.0, 0.5);
    EXPECT_NEAR(all().at("twolf").speedup.at("other"), 0.0, 0.5);
}

TEST_F(PaperShapes, TwolfRespondsToLoopStructure)
{
    const Bench &t = all().at("twolf");
    EXPECT_GT(t.speedup.at("loop"), 30.0);
    EXPECT_GT(t.speedup.at("loopFT"), 30.0);
    EXPECT_GT(t.speedup.at("postdoms"), 30.0);
}

TEST_F(PaperShapes, PredictableBenchmarksGainLittle)
{
    // gzip and bzip2 have high baseline IPCs; every policy's gain
    // stays modest (paper: small bars across the board).
    for (const char *n : {"gzip", "bzip2"}) {
        const Bench &b = all().at(n);
        EXPECT_GT(b.ssIpc, 2.0) << n;
        EXPECT_LT(b.speedup.at("postdoms"), 35.0) << n;
    }
}

TEST_F(PaperShapes, SuperscalarIpcsInPlausibleBand)
{
    for (const auto &[n, b] : all()) {
        EXPECT_GT(b.ssIpc, 0.5) << n;
        EXPECT_LT(b.ssIpc, 6.5) << n;
    }
}

} // namespace
} // namespace polyflow
