/**
 * @file
 * Targeted tests for the timing simulator's individual mechanisms:
 * wrong-path ghost contexts, compiler dependence hints, spawn
 * feedback, divert-release delay, return-address-stack and
 * indirect-target misprediction accounting.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "polyflow.hh"
#include "workloads/wl_common.hh"

namespace polyflow {
namespace {

TEST(Mechanisms, GhostContextsThrottleSpawnsUnderMispredicts)
{
    // twolf is mispredict-dense: holding a context per unresolved
    // mispredict must reduce spawn throughput.
    Session s = Session::open("twolf", 0.1);
    const driver::RunSpec on = *driver::runByLabel("loop");
    driver::RunSpec off = on;
    off.config.wrongPathGhosts = false;
    TimingResult rOn = s.simulate(on);
    TimingResult rOff = s.simulate(off);
    EXPECT_LT(rOn.spawns, rOff.spawns);
}

TEST(Mechanisms, CompilerHintsPreventViolations)
{
    // Without hints, cross-task register consumers speculate and
    // squash once per consumer PC before the predictor learns. The
    // same spawn points with every dependence mask zeroed stand for
    // a compiler that provides none: a table no policy yields, so
    // it is the one source here built by hand.
    Session s = Session::open("twolf", 0.1);
    const SpawnPolicy postdoms = SpawnPolicy::postdoms();
    std::vector<SpawnPoint> noMasks = s.hints(postdoms)->points();
    for (SpawnPoint &sp : noMasks)
        sp.depMask = 0;
    StaticSpawnSource withoutHints{HintTable(noMasks)};
    const driver::RunSpec withHints = *driver::runByLabel("postdoms");
    TimingResult rH = s.simulate(withHints);
    TimingResult rN = runTiming(withHints.config, s.trace(),
                                &withoutHints, "postdoms");
    EXPECT_LT(rH.violations, rN.violations);
}

TEST(Mechanisms, DependenceMasksComputed)
{
    // twolf's loopFT spawn out of the inner loop must carry a
    // nonempty dependence mask (the accumulator registers and the
    // list cursor are written in the region and live at the join).
    Session s = Session::open("twolf", 0.05);
    bool sawMask = false;
    for (const SpawnPoint &sp : s.analysis().points()) {
        if (sp.kind == SpawnKind::LoopFT && sp.depMask != 0)
            sawMask = true;
        // r0 never appears in a mask.
        EXPECT_EQ(sp.depMask & 1u, 0u);
    }
    EXPECT_TRUE(sawMask);
}

TEST(Mechanisms, FeedbackDisablesUnprofitableTriggers)
{
    // A fully serial chain loop: every loop-iteration task's
    // instructions cascade into the divert queue (the first consumer
    // synchronizes cross-task, and its same-task dependents follow
    // it), so the profitability feedback must disable the trigger.
    Module m("t");
    Function &f = m.createFunction("main");
    {
        FunctionBuilder b(f);
        BlockId loop = b.newBlock();
        BlockId done = b.newBlock();
        b.li(reg::t0, 3);
        b.li(reg::t1, 800);
        b.jump(loop);
        b.setBlock(loop);
        for (int i = 0; i < 8; ++i) {
            b.slli(reg::t2, reg::t0, 1);
            b.add(reg::t0, reg::t0, reg::t2);
        }
        b.addi(reg::t1, reg::t1, -1);
        b.bne(reg::t1, reg::zero, loop);
        b.setBlock(done);
        b.halt();
    }
    Session s = Session::adopt(
        finishWorkload(std::make_unique<Module>(std::move(m))));

    const driver::RunSpec fb = *driver::runByLabel("loop");
    TimingResult r = s.simulate(fb);
    EXPECT_GT(r.spawnsSkippedFeedback, 0u);
    EXPECT_GT(r.triggersDisabled, 0u);

    driver::RunSpec noFb = fb;
    noFb.config.spawnFeedback = false;
    TimingResult r2 = s.simulate(noFb);
    EXPECT_EQ(r2.spawnsSkippedFeedback, 0u);
    EXPECT_GT(r2.spawns, r.spawns);
}

TEST(Mechanisms, DivertReleaseDelaySlowsSynchronizedChains)
{
    Session s = Session::open("twolf", 0.1);
    driver::RunSpec fast = *driver::runByLabel("postdoms");
    fast.config.divertReleaseDelay = 0;
    driver::RunSpec slow = fast;
    slow.config.divertReleaseDelay = 12;
    TimingResult rF = s.simulate(fast);
    TimingResult rS = s.simulate(slow);
    EXPECT_LT(rF.cycles, rS.cycles);
}

TEST(Mechanisms, SpawnDistanceCapFiltersFarTargets)
{
    driver::RunSpec tight = *driver::runByLabel("postdoms");
    tight.config.maxSpawnDistance = 16;
    TimingResult r = Session::open("twolf", 0.1).simulate(tight);
    EXPECT_GT(r.spawnsSkippedDistance, 0u);
}

TEST(Mechanisms, ReturnMispredictsOnDeepRecursion)
{
    // Recursion deeper than the 16-entry RAS must overflow it and
    // mispredict some returns.
    auto m = std::make_unique<Module>("t");
    Function &f = m->createFunction("rec");
    {
        FunctionBuilder b(f);
        BlockId recurse = b.newBlock();
        BlockId out = b.newBlock();
        b.beq(reg::a0, reg::zero, out);
        b.setBlock(recurse);
        b.addi(reg::sp, reg::sp, -16);
        b.sd(reg::ra, reg::sp, 0);
        b.addi(reg::a0, reg::a0, -1);
        b.call(0);
        b.ld(reg::ra, reg::sp, 0);
        b.addi(reg::sp, reg::sp, 16);
        b.setBlock(out);
        b.ret();
    }
    Function &main = m->createFunction("main");
    {
        FunctionBuilder b(main);
        b.li(reg::a0, 40);  // depth 40 >> 16 RAS entries
        b.call(f.id());
        b.halt();
    }
    m->entryFunction(main.id());
    Session s = Session::adopt(finishWorkload(std::move(m)));
    driver::RunSpec run = driver::runTable().superscalar;
    EXPECT_GT(s.simulate(run).returnMispredicts, 10u);

    // A generous RAS removes them.
    run.config.returnStackEntries = 64;
    EXPECT_EQ(s.simulate(run).returnMispredicts, 0u);
}

TEST(Mechanisms, IndirectTargetPredictionAccounting)
{
    // A two-target switch alternating every iteration defeats the
    // last-target predictor almost always.
    Module m("t");
    WlRng rng(5);
    Function &f = m.createFunction("main");
    BlockId c0, c1;
    Addr jt;
    {
        FunctionBuilder b(f);
        BlockId loop = b.newBlock("loop");
        BlockId disp = b.newBlock("disp");
        c0 = b.newBlock("c0");
        c1 = b.newBlock("c1");
        BlockId latch = b.newBlock("latch");
        BlockId done = b.newBlock("done");
        b.li(reg::t0, 200);
        b.li(reg::t1, 0);
        b.jump(loop);
        b.setBlock(loop);
        b.andi(reg::t2, reg::t0, 1);  // alternate
        b.slli(reg::t2, reg::t2, 3);
        b.jump(disp);
        b.setBlock(disp);
        b.add(reg::t3, reg::t2, reg::t4);  // t4 = table base
        b.ld(reg::t3, reg::t3, 0);
        b.jr(reg::t3, {c0, c1});
        b.setBlock(c0);
        b.addi(reg::t1, reg::t1, 1);
        b.jump(latch);
        b.setBlock(c1);
        b.addi(reg::t1, reg::t1, 2);
        b.setBlock(latch);
        b.addi(reg::t0, reg::t0, -1);
        b.bne(reg::t0, reg::zero, loop);
        b.setBlock(done);
        b.halt();
    }
    jt = m.allocJumpTable("jt", {{f.id(), c0}, {f.id(), c1}});
    // Patch t4 with the table base via an li at entry.
    f.block(0).instrs().insert(
        f.block(0).instrs().begin(), [&] {
            Instruction i;
            i.op = Opcode::LUI;
            i.rd = reg::t4;
            i.imm = std::int64_t(jt);
            return i;
        }());
    Session s = Session::adopt(
        finishWorkload(std::make_unique<Module>(std::move(m))));
    TimingResult r = s.simulate(driver::runTable().superscalar);
    EXPECT_GT(r.indirectMispredicts, 150u);
}

TEST(Mechanisms, IndirectCallsPushTheReturnStack)
{
    // 50 JALR calls through one register to one callee. Fetch pushes
    // the return address at each, so every return predicts; the
    // target predictor misses only the first, cold call.
    constexpr int calls = 50;
    auto m = std::make_unique<Module>("t");
    Function &callee = m->createFunction("callee");
    {
        FunctionBuilder b(callee);
        b.addi(reg::a0, reg::a0, 1);
        b.ret();
    }
    Function &main = m->createFunction("main");
    {
        FunctionBuilder b(main);
        BlockId loop = b.newBlock("loop");
        BlockId done = b.newBlock("done");
        b.li(reg::t0, 0);  // the callee's address, patched below
        b.li(reg::s0, calls);
        b.jump(loop);
        b.setBlock(loop);
        b.callIndirect(reg::t0);
        b.addi(reg::s0, reg::s0, -1);
        b.bne(reg::s0, reg::zero, loop);
        b.setBlock(done);
        b.halt();
    }
    m->entryFunction(main.id());
    // Addresses exist only after a link; the patch keeps every
    // instruction's size, so finishWorkload's link keeps them.
    m->link();
    main.block(0).instrs().front().imm = std::int64_t(callee.startAddr());
    const FuncId caller = main.id(), target = callee.id();
    Session s = Session::adopt(finishWorkload(std::move(m)));

    std::uint64_t jalrs = 0;
    for (TraceIdx i = 0; i < s.trace().size(); ++i)
        jalrs += s.trace().staticOf(i).instr.op == Opcode::JALR;
    ASSERT_EQ(jalrs, std::uint64_t(calls));
    TimingResult r = s.simulate(driver::runTable().superscalar);
    EXPECT_EQ(r.returnMispredicts, 0u);
    EXPECT_EQ(r.indirectMispredicts, 1u);

    // The caller's callee is unknown to the analysis, so a call to
    // main may clobber every register but r0.
    const std::vector<RegMask> writes = moduleWriteSummaries(s.module());
    EXPECT_EQ(writes[caller], ~RegMask(1));
    EXPECT_NE(writes[target], ~RegMask(1));
}

TEST(Mechanisms, TasksRetiredEqualsSpawnsPlusOne)
{
    for (const char *name : {"twolf", "mcf", "vortex"}) {
        TimingResult r = Session::open(name, 0.05)
                             .simulate(*driver::runByLabel("postdoms"));
        EXPECT_EQ(r.tasksRetired, r.spawns + 1) << name;
    }
}

TEST(Mechanisms, AnyTaskSpawningLiftsTailRestriction)
{
    // Section 6 extension: with spawn-from-any-task, non-tail tasks
    // keep spawning, so total spawns must not drop and usually rise.
    Session s = Session::open("twolf", 0.1);
    const driver::RunSpec tail = *driver::runByLabel("postdoms");
    driver::RunSpec any = tail;
    any.config.spawnFromAnyTask = true;
    TimingResult rT = s.simulate(tail);
    TimingResult rA = s.simulate(any);
    EXPECT_EQ(rA.instrs, rT.instrs);
    EXPECT_GE(rA.spawns + 8, rT.spawns);
    EXPECT_EQ(rA.tasksRetired, rA.spawns + 1);
}

TEST(Mechanisms, DmtSourceSpawnsLoopAndProcFallThroughs)
{
    Session s = Session::open("twolf", 0.1);
    TimingResult r = s.simulate(*driver::runByLabel("dmt"));
    EXPECT_EQ(r.instrs, s.trace().size());
    EXPECT_GT(r.spawnsByKind[int(SpawnKind::LoopFT)], 0u);
    EXPECT_EQ(r.spawnsByKind[int(SpawnKind::Hammock)], 0u);
    EXPECT_EQ(r.spawnsByKind[int(SpawnKind::Other)], 0u);
}

TEST(Mechanisms, TaskEventsAreConsistent)
{
    std::vector<TaskEvent> events;
    TimingResult r = Session::open("mcf", 0.05)
                         .simulate(*driver::runByLabel("postdoms"),
                                   {.events = &events});

    std::uint64_t spawns = 0, retires = 0, squashes = 0;
    std::uint64_t last = 0;
    for (const TaskEvent &e : events) {
        EXPECT_GE(e.cycle, last * 0);  // cycles are sane
        EXPECT_LT(e.begin, e.end);
        switch (e.kind) {
          case TaskEvent::Kind::Spawn: ++spawns; break;
          case TaskEvent::Kind::Retire: ++retires; break;
          case TaskEvent::Kind::Squash: ++squashes; break;
        }
        last = e.cycle;
    }
    EXPECT_EQ(spawns, r.spawns);
    EXPECT_EQ(retires, r.tasksRetired);
    EXPECT_EQ(squashes, r.tasksSquashed);
}

TEST(Mechanisms, SpeedupArithmetic)
{
    TimingResult base;
    base.cycles = 2000;
    base.instrs = 1000;
    TimingResult faster;
    faster.cycles = 1000;
    faster.instrs = 1000;
    EXPECT_DOUBLE_EQ(faster.speedupOver(base), 100.0);
    EXPECT_DOUBLE_EQ(base.speedupOver(base), 0.0);
    EXPECT_DOUBLE_EQ(base.ipc(), 0.5);
}

} // namespace
} // namespace polyflow
