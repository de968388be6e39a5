/**
 * @file
 * Tests for the synthetic workload suite: every workload must link,
 * validate, run to completion deterministically, and expose the
 * spawn-point mix its SPEC namesake is meant to model.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "isa/functional_sim.hh"
#include "spawn/spawn_analysis.hh"
#include "store/artifact_store.hh"
#include "workloads/workloads.hh"

namespace polyflow {
namespace {

constexpr double testScale = 0.05;

class WorkloadTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadTest, BuildsAndLinks)
{
    Workload w = buildWorkload(GetParam(), testScale);
    EXPECT_EQ(w.name, GetParam());
    EXPECT_GT(w.prog.size(), 10u);
    EXPECT_NE(w.prog.entryAddr(), invalidAddr);
}

TEST_P(WorkloadTest, RunsToCompletion)
{
    Workload w = buildWorkload(GetParam(), testScale);
    FunctionalOptions opt;
    opt.maxInstrs = 20'000'000;
    auto r = runFunctional(w.prog, opt);
    EXPECT_TRUE(r.halted) << "did not reach HALT";
    EXPECT_GT(r.instrCount, 1000u);
}

TEST_P(WorkloadTest, DeterministicExecution)
{
    Workload w1 = buildWorkload(GetParam(), testScale);
    Workload w2 = buildWorkload(GetParam(), testScale);
    auto r1 = runFunctional(w1.prog);
    auto r2 = runFunctional(w2.prog);
    EXPECT_EQ(r1.instrCount, r2.instrCount);
    EXPECT_EQ(r1.finalState->memChecksum(),
              r2.finalState->memChecksum());
}

TEST_P(WorkloadTest, ScaleControlsDynamicLength)
{
    Workload small = buildWorkload(GetParam(), 0.05);
    Workload large = buildWorkload(GetParam(), 1.0);
    auto rs = runFunctional(small.prog);
    auto rl = runFunctional(large.prog);
    EXPECT_LT(rs.instrCount, rl.instrCount);
}

TEST_P(WorkloadTest, SpawnAnalysisFindsPoints)
{
    Workload w = buildWorkload(GetParam(), testScale);
    SpawnAnalysis sa(*w.module, w.prog);
    EXPECT_GT(sa.points().size(), 0u);
    // Every workload has procedure calls and at least one loop.
    EXPECT_GT(sa.census().byKind[int(SpawnKind::ProcFT)], 0);
    EXPECT_GT(sa.census().byKind[int(SpawnKind::LoopIter)], 0);
    EXPECT_GT(sa.census().postdomTotal(), 0);
}

TEST_P(WorkloadTest, TraceRecordingWorks)
{
    Workload w = buildWorkload(GetParam(), 0.02);
    FunctionalOptions opt;
    opt.recordTrace = true;
    auto r = runFunctional(w.prog, opt);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.trace.size(), r.instrCount);
    // Every recorded instruction must reference a valid image slot.
    for (TraceIdx i = 0; i < r.trace.size(); i += 97)
        EXPECT_LT(r.trace.instrs[i].img(), w.prog.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadTest,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (c == '.')
                c = '_';
        }
        return n;
    });

TEST(WorkloadRegistry, UnknownNameThrows)
{
    EXPECT_THROW(buildWorkload("nonesuch"), std::runtime_error);
}

TEST(WorkloadRegistry, HasTwelveBenchmarks)
{
    EXPECT_EQ(allWorkloadNames().size(), 12u);
}

/**
 * Every linked program, byte for byte: a builder edit that moves an
 * instruction, a block or a data word fails here naming the workload
 * and scale, before it shows up as drifted cycles in a golden. The
 * scales are the goldens' (0.04) and the published figures' (1).
 */
TEST(WorkloadRegistry, ProgramsArePinned)
{
    struct Pin
    {
        const char *name;
        std::uint64_t atGolden;
        std::uint64_t atOne;
    };
    const Pin pins[] = {
        {"bzip2", 0xce19aa7b1a14ec4d, 0x23b1b5312b9fe868},
        {"crafty", 0x6ded1f847ce771bf, 0xb7d10c722a403ec0},
        {"gap", 0x7d096593da1f96ec, 0xbd5a7e2fdccb18f5},
        {"gcc", 0x783b8ab136971764, 0x257c137303a56d99},
        {"gzip", 0x23b764be52148c3e, 0x50d0e1bb7e1a173f},
        {"mcf", 0xe26b925249002c70, 0x409c2dc17b87e4ce},
        {"parser", 0xe9ef8cf35dcaaacb, 0xaa3a51b120c30cda},
        {"perlbmk", 0x73ad5393f940c84c, 0xb0dac6128addc2ee},
        {"twolf", 0xf2b584f1bd308b3d, 0x148c387ba94dc684},
        {"vortex", 0xa8d176ad8d6988e4, 0xebe63bcd2de91e0e},
        {"vpr.place", 0x1f3d2590fa47d24f, 0x82f16e12f7c943d3},
        {"vpr.route", 0x03aed2cb59e55515, 0xa6e230d8bbfa44ae},
    };
    ASSERT_EQ(std::size(pins), allWorkloadNames().size());
    for (const Pin &p : pins) {
        EXPECT_EQ(store::programContentHash(
                      buildWorkload(p.name, 0.04).prog),
                  p.atGolden)
            << p.name << " at scale 0.04";
        EXPECT_EQ(store::programContentHash(
                      buildWorkload(p.name, 1.0).prog),
                  p.atOne)
            << p.name << " at scale 1";
    }
}

TEST(WorkloadCharacter, PerlbmkHasIndirectJumps)
{
    Workload w = buildWorkload("perlbmk", testScale);
    SpawnAnalysis sa(*w.module, w.prog);
    EXPECT_GT(sa.census().byKind[int(SpawnKind::Other)], 0);
}

TEST(WorkloadCharacter, TwolfHasNestedLoopSpawns)
{
    Workload w = buildWorkload("twolf", testScale);
    SpawnAnalysis sa(*w.module, w.prog);
    // new_dbox_a alone carries two loops (inner and outer).
    EXPECT_GE(sa.census().byKind[int(SpawnKind::LoopIter)], 2);
    EXPECT_GE(sa.census().byKind[int(SpawnKind::LoopFT)], 2);
    EXPECT_GE(sa.census().byKind[int(SpawnKind::Hammock)], 3);
}

TEST(WorkloadCharacter, VortexIsCallHeavy)
{
    Workload w = buildWorkload("vortex", testScale);
    SpawnAnalysis sa(*w.module, w.prog);
    EXPECT_GE(sa.census().byKind[int(SpawnKind::ProcFT)], 6);
}

} // namespace
} // namespace polyflow
