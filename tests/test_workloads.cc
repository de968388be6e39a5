/**
 * @file
 * Tests for the synthetic workload suite: every workload must link,
 * validate, run to completion deterministically, and expose the
 * spawn-point mix its SPEC namesake is meant to model.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "driver/session.hh"
#include "isa/functional_sim.hh"
#include "spawn/spawn_analysis.hh"
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
    Session s = Session::open(GetParam(), testScale);
    const SpawnAnalysis &sa = s.analysis();
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
 * and scale, before it shows up as drifted cycles in the cycle pin.
 * The scales are the pin's (0.04) and the published figures' (1).
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
        {"bzip2", 0xa5e286b3d657bf9a, 0x929b48f5c1c428ec},
        {"crafty", 0x4cbaf6188d4e6fea, 0x7e6f73a535c638ab},
        {"gap", 0xf871f2ff7e5feadd, 0xd74f78ea0432cad0},
        {"gcc", 0x71ac9732aede9118, 0xb2e73d876136db1e},
        {"gzip", 0x90ef854aeab00517, 0x8d4085d7c2b96ce2},
        {"mcf", 0x61e2946123b2daf0, 0xf646eed16b12327a},
        {"parser", 0x5070e7da39e890b4, 0xf180cb9c76b762da},
        {"perlbmk", 0xd0a9589847aab013, 0xda098f0b2c8cc43e},
        {"twolf", 0x1bf68d4396b5d180, 0xf4ecfccd8bb0106c},
        {"vortex", 0x6d207668c66ef7f4, 0x1d94afbe395d51bf},
        {"vpr.place", 0xf5bf8a3a7538c4c4, 0x4301dd71407764be},
        {"vpr.route", 0x43edcc0f94b70184, 0x228ad23c2235a9d3},
    };
    ASSERT_EQ(std::size(pins), allWorkloadNames().size());
    for (const Pin &p : pins) {
        EXPECT_EQ(buildWorkload(p.name, 0.04).prog.contentHash(),
                  p.atGolden)
            << p.name << " at scale 0.04";
        EXPECT_EQ(buildWorkload(p.name, 1.0).prog.contentHash(),
                  p.atOne)
            << p.name << " at scale 1";
    }
}

TEST(WorkloadCharacter, PerlbmkHasIndirectJumps)
{
    Session s = Session::open("perlbmk", testScale);
    EXPECT_GT(s.analysis().census().byKind[int(SpawnKind::Other)], 0);
}

TEST(WorkloadCharacter, TwolfHasNestedLoopSpawns)
{
    Session s = Session::open("twolf", testScale);
    const SpawnAnalysis &sa = s.analysis();
    // new_dbox_a alone carries two loops (inner and outer).
    EXPECT_GE(sa.census().byKind[int(SpawnKind::LoopIter)], 2);
    EXPECT_GE(sa.census().byKind[int(SpawnKind::LoopFT)], 2);
    EXPECT_GE(sa.census().byKind[int(SpawnKind::Hammock)], 3);
}

TEST(WorkloadCharacter, VortexIsCallHeavy)
{
    Session s = Session::open("vortex", testScale);
    EXPECT_GE(s.analysis().census().byKind[int(SpawnKind::ProcFT)], 6);
}

} // namespace
} // namespace polyflow
