/**
 * @file
 * Tests for the cycle-level timing simulator: sanity bounds,
 * resource effects, misprediction penalties, spawning, inter-task
 * synchronization and violation squashes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>

#include "ir/builder.hh"
#include "polyflow.hh"
#include "workloads/wl_common.hh"

namespace polyflow {
namespace {

/** The superscalar run of a session's workload. */
TimingResult
superscalar(Session &s)
{
    return s.simulate(driver::runTable().superscalar);
}

TEST(TimingSim, StraightLineBasics)
{
    auto m = std::make_unique<Module>("t");
    Function &f = m->createFunction("main");
    {
        FunctionBuilder b(f);
        for (int i = 0; i < 64; ++i)
            b.addi(reg::t0, reg::t0, 1);
        b.halt();
    }
    Session s = Session::adopt(finishWorkload(std::move(m)));
    TimingResult res = superscalar(s);
    EXPECT_EQ(res.instrs, 65u);
    EXPECT_GT(res.cycles, 8u);           // at least width-limited
    EXPECT_LE(res.ipc(), 8.0);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.spawns, 0u);
}

TEST(TimingSim, DependentChainIsSlowerThanIndependent)
{
    // Loop the kernel so cold-cache fetch misses amortize and the
    // backend dominates.
    auto makeProg = [](bool dependent) {
        auto m = std::make_unique<Module>("t");
        Function &f = m->createFunction("main");
        FunctionBuilder b(f);
        BlockId loop = b.newBlock();
        BlockId done = b.newBlock();
        b.li(reg::t1, 30);
        b.jump(loop);
        b.setBlock(loop);
        for (int i = 0; i < 64; ++i) {
            if (dependent)
                b.mul(reg::t0, reg::t0, reg::t0);  // serial chain
            else
                b.mul(RegId(reg::s0 + i % 8), reg::a0, reg::a1);
        }
        b.addi(reg::t1, reg::t1, -1);
        b.bne(reg::t1, reg::zero, loop);
        b.setBlock(done);
        b.halt();
        return m;
    };
    Session dep = Session::adopt(finishWorkload(makeProg(true)));
    Session ind = Session::adopt(finishWorkload(makeProg(false)));
    TimingResult sd = superscalar(dep);
    TimingResult si = superscalar(ind);
    EXPECT_GT(sd.cycles, si.cycles * 2);
}

TEST(TimingSim, MispredictsCostCycles)
{
    // Same instruction count; one version branches on a random data
    // bit, the other on a constant.
    auto makeProg = [](bool random) {
        auto m = std::make_unique<Module>("t");
        WlRng rng(7);
        Addr bits = allocBitWords(*m, "bits", 256, random ? 50 : 0,
                                  rng);
        Function &f = m->createFunction("main");
        FunctionBuilder b(f);
        BlockId loop = b.newBlock();
        BlockId thenB = b.newBlock();
        BlockId latch = b.newBlock();
        BlockId done = b.newBlock();
        b.li(reg::t0, std::int64_t(bits));
        b.li(reg::t1, 256);
        b.jump(loop);
        b.setBlock(loop);
        b.ld(reg::t2, reg::t0, 0);
        b.beq(reg::t2, reg::zero, latch);
        b.setBlock(thenB);
        b.addi(reg::t3, reg::t3, 1);
        b.setBlock(latch);
        b.addi(reg::t0, reg::t0, 8);
        b.addi(reg::t1, reg::t1, -1);
        b.bne(reg::t1, reg::zero, loop);
        b.setBlock(done);
        b.halt();
        return m;
    };
    Session hard = Session::adopt(finishWorkload(makeProg(true)));
    Session easy = Session::adopt(finishWorkload(makeProg(false)));
    TimingResult sh = superscalar(hard);
    TimingResult se = superscalar(easy);
    EXPECT_GT(sh.branchMispredicts, 50u);
    EXPECT_LT(se.branchMispredicts, 20u);
    EXPECT_GT(sh.cycles, se.cycles + 8 * 40);
}

TEST(TimingSim, ICacheMissesAppearWithLargeFootprint)
{
    Session s = Session::open("vortex", 0.05);
    EXPECT_GT(superscalar(s).icacheMisses, 100u);
}

TEST(TimingSim, PostdomSpawningBeatsSuperscalarOnTwolf)
{
    Session s = Session::open("twolf", 0.1);
    TimingResult ss = superscalar(s);
    TimingResult pf = s.simulate(*driver::runByLabel("postdoms"));
    EXPECT_GT(pf.spawns, 0u);
    EXPECT_GT(pf.tasksRetired, 0u);
    EXPECT_LT(pf.cycles, ss.cycles);
}

TEST(TimingSim, SpawningProducesAllKindsOnTwolf)
{
    TimingResult pf = Session::open("twolf", 0.1)
                          .simulate(*driver::runByLabel("postdoms"));
    EXPECT_GT(pf.spawnsByKind[int(SpawnKind::Hammock)], 0u);
    EXPECT_GT(pf.spawnsByKind[int(SpawnKind::LoopFT)], 0u);
    // twolf's call sites span more dynamic instructions than the
    // spawn-distance cap, so no procFT spawns fire here.
    EXPECT_EQ(pf.spawnsByKind[int(SpawnKind::LoopIter)], 0u);
}

TEST(TimingSim, ProcFTSpawnsFireOnCallHeavyWorkload)
{
    TimingResult pf = Session::open("vortex", 0.1)
                          .simulate(*driver::runByLabel("procFT"));
    EXPECT_GT(pf.spawnsByKind[int(SpawnKind::ProcFT)], 0u);
}

TEST(TimingSim, LoopPolicySpawnsOnlyLoopIters)
{
    TimingResult pf = Session::open("twolf", 0.1)
                          .simulate(*driver::runByLabel("loop"));
    EXPECT_GT(pf.spawnsByKind[int(SpawnKind::LoopIter)], 0u);
    EXPECT_EQ(pf.spawnsByKind[int(SpawnKind::Hammock)], 0u);
    EXPECT_EQ(pf.spawnsByKind[int(SpawnKind::ProcFT)], 0u);
}

TEST(TimingSim, SingleTaskConfigNeverSpawns)
{
    // Every machine that cannot spawn is the superscalar: the same
    // result, counter for counter, apart from its label and the
    // skipped-spawn counts that say why it did not spawn.
    auto unlabelled = [](TimingResult r) {
        r.policyName.clear();
        r.spawnsSkippedNoContext = 0;
        r.spawnsSkippedDistance = 0;
        return r;
    };
    // An empty static source, not the baseline's null one.
    const auto none = driver::SourceSpec::statics(SpawnPolicy::none());
    const auto postdoms =
        driver::SourceSpec::statics(SpawnPolicy::postdoms());
    for (const std::string &name : allWorkloadNames()) {
        SCOPED_TRACE(name);
        Session s = Session::open(name, 0.1);
        TimingResult ss = unlabelled(
            s.simulate({"none", none, MachineConfig::superscalar()}));

        MachineConfig oneTask;
        oneTask.numTasks = 1;
        TimingResult pf = s.simulate({"postdoms", postdoms, oneTask});
        EXPECT_EQ(pf.spawns, 0u);
        EXPECT_EQ(unlabelled(pf), ss) << "postdoms, one task";

        MachineConfig noDistance;
        noDistance.minSpawnDistance = UINT32_MAX;
        EXPECT_EQ(unlabelled(s.simulate({"postdoms", postdoms, noDistance})),
                  ss)
            << "postdoms, minSpawnDistance past the trace";

        EXPECT_EQ(unlabelled(s.simulate({"none", none, MachineConfig{}})), ss)
            << "no spawn policy, 8 contexts";
    }
}

TEST(TimingSim, TaskCountBoundsSpawning)
{
    Session s = Session::open("twolf", 0.1);
    driver::RunSpec two = *driver::runByLabel("postdoms");
    two.config.numTasks = 2;
    TimingResult pf2 = s.simulate(two);
    TimingResult pf8 = s.simulate(*driver::runByLabel("postdoms"));
    EXPECT_GT(pf8.spawns, pf2.spawns);
    // More contexts should not hurt on this loop-parallel workload.
    EXPECT_LE(pf8.cycles, pf2.cycles * 11 / 10);
}

TEST(TimingSim, DeterministicResults)
{
    Session s = Session::open("mcf", 0.05);
    TimingResult a = s.simulate(*driver::runByLabel("postdoms"));
    TimingResult b = s.simulate(*driver::runByLabel("postdoms"));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.spawns, b.spawns);
    EXPECT_EQ(a.violations, b.violations);
}

TEST(TimingSim, StageProfileLeavesTheRunUnchanged)
{
    // The stage profile only reads the clock: a profiled run is the
    // unprofiled run, and the profile counts that run's cycles.
    Session s = Session::open("twolf", 0.04);
    StaticSpawnSource src{s.hints(SpawnPolicy::postdoms())};
    const auto index = s.cache()->traceIndex(s.name(), s.scale());
    const BatchItem item{&s.trace(), &src, index.get(), "postdoms",
                         nullptr};
    const MachineConfig cfg;
    const auto plain = TimingSim::runBatch(cfg, {&item, 1});
    StageProfile profile;
    const auto profiled = TimingSim::runBatch(cfg, {&item, 1}, &profile);
    ASSERT_EQ(plain.size(), 1u);
    EXPECT_GT(plain[0].spawns, 0u);
    EXPECT_EQ(profiled, plain);
    EXPECT_EQ(profile.cycles, plain[0].cycles);
    EXPECT_EQ(profile.machines, 1u);
}

TEST(TimingSim, CrossTaskMemoryDependenceIsHonoured)
{
    // Producer loop writes a cell; a consumer loop after it reads
    // the same cell. LoopFT spawning overlaps them; the total must
    // still equal the functional result (the trace guarantees
    // values; here we check the machine reports sync activity).
    Module m("t");
    WlRng rng(3);
    Addr cell = m.allocData("cell", 8);
    Addr arr = allocRandomWords(m, "arr", 64, rng, 0xff);
    Function &f = m.createFunction("main");
    {
        FunctionBuilder b(f);
        BlockId l1 = b.newBlock();
        BlockId mid = b.newBlock();
        BlockId l2 = b.newBlock();
        BlockId done = b.newBlock();
        b.li(reg::t0, std::int64_t(arr));
        b.li(reg::t1, 64);
        b.li(reg::t4, std::int64_t(cell));
        b.jump(l1);
        // Producer loop: cell += arr[i].
        b.setBlock(l1);
        b.ld(reg::t2, reg::t0, 0);
        b.ld(reg::t3, reg::t4, 0);
        b.add(reg::t3, reg::t3, reg::t2);
        b.sd(reg::t3, reg::t4, 0);
        b.addi(reg::t0, reg::t0, 8);
        b.addi(reg::t1, reg::t1, -1);
        b.bne(reg::t1, reg::zero, l1);
        // Consumer loop reads cell 64 times.
        b.setBlock(mid);
        b.li(reg::t1, 64);
        b.jump(l2);
        b.setBlock(l2);
        b.ld(reg::t5, reg::t4, 0);
        b.add(reg::t6, reg::t6, reg::t5);
        b.addi(reg::t1, reg::t1, -1);
        b.bne(reg::t1, reg::zero, l2);
        b.setBlock(done);
        b.halt();
    }
    Session s = Session::adopt(
        finishWorkload(std::make_unique<Module>(std::move(m))));
    TimingResult pf = s.simulate(*driver::runByLabel("loopFT"));
    // Either the machine spawned and synchronized/squashed, or it
    // found no profitable spawn; in all cases it must finish.
    EXPECT_EQ(pf.instrs, s.trace().size());
}

TEST(TimingSim, ViolationSquashLearnsStoreSet)
{
    TimingResult pf = Session::open("twolf", 0.1)
                          .simulate(*driver::runByLabel("postdoms"));
    // twolf's *costptr accumulation conflicts across tasks: the
    // first conflict squashes, then the store set synchronizes.
    if (pf.violations > 0) {
        EXPECT_GT(pf.instrsDiverted, 0u);
    }
    // Violations must not dominate (the predictor must learn).
    EXPECT_LT(pf.violations, pf.spawns + 10);
}

TEST(TimingSim, EmptyTraceRejected)
{
    Trace t;
    MachineConfig cfg;
    EXPECT_THROW(runTiming(cfg, t, nullptr, "empty"), std::runtime_error);
    // Records without the program they index are rejected too, with
    // or without a spawn source.
    for (TraceIdx i = 0; i < 4; ++i)
        t.append(0, false, invalidTrace, invalidTrace, invalidAddr,
                 invalidTrace);
    EXPECT_THROW(runTiming(MachineConfig::superscalar(), t, nullptr, "np"),
                 std::runtime_error);
    DmtSpawnSource dmt;
    EXPECT_THROW(runTiming(cfg, t, &dmt, "np"), std::runtime_error);
}

TEST(TimingSim, CycleLimitNamesTheRun)
{
    // An integer latency longer than the cycle limit keeps the first
    // result from ever arriving, so commit never advances: the run
    // must stop at the cycle limit and say which run hung.
    auto m = std::make_unique<Module>("t");
    Function &f = m->createFunction("main");
    {
        FunctionBuilder b(f);
        for (int i = 0; i < 8; ++i)
            b.addi(reg::t0, reg::t0, 1);
        b.halt();
    }
    Session s = Session::adopt(finishWorkload(std::move(m)));
    MachineConfig cfg = MachineConfig::superscalar();
    cfg.intLatency = 1'000'000'000;
    try {
        s.simulate({"stuck", driver::SourceSpec::baseline(), cfg});
        FAIL() << "expected a cycle-limit error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cycle limit"), std::string::npos) << msg;
        EXPECT_NE(msg.find("\"stuck\""), std::string::npos) << msg;
    }
}

/** One MachineConfig field and a way to make it invalid. */
struct BadField
{
    const char *field;
    std::function<void(MachineConfig &)> spoil;
};

/** Print a BadField as its field name. gtest's default dumps the
 *  object's bytes, pointers included, so the listed test names (and
 *  the ctest names discovered from them) changed from run to run. */
void
PrintTo(const BadField &f, std::ostream *os)
{
    *os << f.field;
}

class BadConfig : public ::testing::TestWithParam<BadField>
{};

TEST_P(BadConfig, IsRejectedNamingTheField)
{
    // A config no machine can run fails before the first cycle, with
    // the field's name, instead of spinning to the cycle limit.
    auto m = std::make_unique<Module>("t");
    Function &f = m->createFunction("main");
    {
        FunctionBuilder b(f);
        b.addi(reg::t0, reg::t0, 1);
        b.halt();
    }
    Session s = Session::adopt(finishWorkload(std::move(m)));
    MachineConfig cfg;
    GetParam().spoil(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    try {
        s.simulate({"bad", driver::SourceSpec::baseline(), cfg});
        FAIL() << "expected a config error";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(GetParam().field), std::string::npos)
            << msg;
    }
}

INSTANTIATE_TEST_SUITE_P(
    MachineConfig, BadConfig,
    ::testing::Values(
        BadField{"pipelineWidth",
                 [](MachineConfig &c) { c.pipelineWidth = 0; }},
        BadField{"numTasks", [](MachineConfig &c) { c.numTasks = 0; }},
        BadField{"robEntries",
                 [](MachineConfig &c) { c.robEntries = 0; }},
        BadField{"schedEntries",
                 [](MachineConfig &c) { c.schedEntries = 0; }},
        BadField{"divertEntries",
                 [](MachineConfig &c) { c.divertEntries = -1; }},
        BadField{"numFUs", [](MachineConfig &c) { c.numFUs = 0; }},
        BadField{"fetchQueueEntries",
                 [](MachineConfig &c) { c.fetchQueueEntries = 0; }},
        BadField{"fetchTasksPerCycle",
                 [](MachineConfig &c) { c.fetchTasksPerCycle = 0; }},
        BadField{"returnStackEntries",
                 [](MachineConfig &c) { c.returnStackEntries = 0; }},
        // 768 B / (128 B x 2 ways) = 3 sets.
        BadField{"l1i", [](MachineConfig &c) { c.l1i.sizeBytes = 768; }},
        // 16 KB / (64 B x 3 ways) = 85 sets.
        BadField{"l1d", [](MachineConfig &c) { c.l1d.assoc = 3; }},
        BadField{"l2", [](MachineConfig &c) { c.l2.lineBytes = 0; }},
        // Line numbers are taken by shift.
        BadField{"l1d.lineBytes",
                 [](MachineConfig &c) { c.l1d.lineBytes = 48; }},
        // A negative latency or delay gives nonsense cycle counts.
        BadField{"intLatency",
                 [](MachineConfig &c) { c.intLatency = -1; }},
        BadField{"mulLatency",
                 [](MachineConfig &c) { c.mulLatency = -1; }},
        BadField{"divLatency",
                 [](MachineConfig &c) { c.divLatency = -1; }},
        BadField{"loadLatency",
                 [](MachineConfig &c) { c.loadLatency = -1; }},
        BadField{"divertReleaseDelay",
                 [](MachineConfig &c) { c.divertReleaseDelay = -1; }},
        BadField{"robReservePerOlderTask",
                 [](MachineConfig &c) { c.robReservePerOlderTask = -1; }},
        BadField{"l1i.missLatency",
                 [](MachineConfig &c) { c.l1i.missLatency = -1; }},
        BadField{"l1d.missLatency",
                 [](MachineConfig &c) { c.l1d.missLatency = -1; }},
        BadField{"l2.missLatency",
                 [](MachineConfig &c) { c.l2.missLatency = -1; }}),
    [](const ::testing::TestParamInfo<BadField> &info) {
        // Test names allow no '.': "l1i.missLatency" -> l1i_missLatency.
        std::string name = info.param.field;
        std::replace(name.begin(), name.end(), '.', '_');
        return name;
    });

TEST(TimingSim, AllWorkloadsFinishUnderAllBasePolicies)
{
    for (const std::string &name : allWorkloadNames()) {
        Session s = Session::open(name, 0.03);
        EXPECT_EQ(superscalar(s).instrs, s.trace().size()) << name;
        TimingResult pf = s.simulate(*driver::runByLabel("postdoms"));
        EXPECT_EQ(pf.instrs, s.trace().size()) << name;
    }
}

} // namespace
} // namespace polyflow
