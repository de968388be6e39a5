/**
 * @file
 * Unit tests for the three spawn sources the Task Spawn Unit can be
 * wired to: static hint tables, the reconvergence-predictor source
 * and the DMT-style heuristics.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "polyflow.hh"
#include "sim/spawn_source.hh"

namespace polyflow {
namespace {

/** A linked two-function program with a call, a loop and an
 *  if-then, exercising every source. */
struct Fixture
{
    Module mod{"t"};
    LinkedProgram prog;
    Addr callPc = invalidAddr;
    Addr branchPc = invalidAddr;
    Addr backPc = invalidAddr;
    Addr joinPc = invalidAddr;

    Fixture()
    {
        Function &g = mod.createFunction("g");
        {
            FunctionBuilder b(g);
            b.ret();
        }
        Function &f = mod.createFunction("main");
        BlockId thenB, join, loop, done;
        {
            FunctionBuilder b(f);
            thenB = b.newBlock("then");
            join = b.newBlock("join");
            loop = b.newBlock("loop");
            done = b.newBlock("done");
            b.call(g.id());
            b.beq(reg::a0, reg::zero, join);
            b.setBlock(thenB);
            b.addi(reg::t0, reg::t0, 1);
            b.setBlock(join);
            b.li(reg::t1, 3);
            b.setBlock(loop);
            b.addi(reg::t1, reg::t1, -1);
            b.bne(reg::t1, reg::zero, loop);
            b.setBlock(done);
            b.halt();
        }
        mod.entryFunction(f.id());
        prog = mod.link();
        callPc = f.startAddr();
        branchPc = f.block(0).termAddr();
        joinPc = f.block(join).startAddr();
        backPc = f.block(loop).termAddr();
    }

    const LinkedInstr &at(Addr a) { return prog.at(prog.idxOf(a)); }
};

TEST(SpawnSources, StaticSourceFollowsTheTable)
{
    Fixture fx;
    SpawnAnalysis sa(fx.mod, fx.prog);
    StaticSpawnSource src{HintTable(sa, SpawnPolicy::postdoms())};

    auto h = src.query(fx.at(fx.branchPc));
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->targetPc, fx.joinPc);
    EXPECT_EQ(h->kind, SpawnKind::Hammock);

    auto c = src.query(fx.at(fx.callPc));
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->kind, SpawnKind::ProcFT);
    EXPECT_EQ(c->targetPc, fx.callPc + instrBytes);

    // Non-trigger PCs return nothing.
    EXPECT_FALSE(src.query(fx.at(fx.joinPc)).has_value());
}

TEST(SpawnSources, StaticSourceRespectsPolicy)
{
    Fixture fx;
    SpawnAnalysis sa(fx.mod, fx.prog);
    StaticSpawnSource hamOnly{HintTable(sa, SpawnPolicy::hammock())};
    EXPECT_TRUE(hamOnly.query(fx.at(fx.branchPc)).has_value());
    EXPECT_FALSE(hamOnly.query(fx.at(fx.callPc)).has_value());
    EXPECT_FALSE(hamOnly.query(fx.at(fx.backPc)).has_value());
}

TEST(SpawnSources, DmtSpawnsBackwardAndCallFallThroughs)
{
    Fixture fx;
    DmtSpawnSource dmt;

    // Backward branch -> loop fall-through at pc + 4.
    auto lf = dmt.query(fx.at(fx.backPc));
    ASSERT_TRUE(lf.has_value());
    EXPECT_EQ(lf->kind, SpawnKind::LoopFT);
    EXPECT_EQ(lf->targetPc, fx.backPc + instrBytes);

    // Forward branch: DMT has no hammock notion.
    EXPECT_FALSE(dmt.query(fx.at(fx.branchPc)).has_value());

    // Calls spawn the return address.
    auto pf = dmt.query(fx.at(fx.callPc));
    ASSERT_TRUE(pf.has_value());
    EXPECT_EQ(pf->kind, SpawnKind::ProcFT);
}

TEST(SpawnSources, ReconSourceWarmsUpThenPredicts)
{
    Fixture fx;
    ReconSpawnSource rec;

    // Cold: conditional branches yield nothing, calls always do.
    EXPECT_FALSE(rec.query(fx.at(fx.branchPc)).has_value());
    EXPECT_TRUE(rec.query(fx.at(fx.callPc)).has_value());

    // Train with alternating outcomes of the diamond.
    for (int i = 0; i < 30; ++i) {
        bool taken = i % 2 == 0;
        rec.onCommit(fx.at(fx.branchPc), taken);
        if (!taken) {
            // then-block start
            rec.onCommit(fx.at(fx.branchPc + instrBytes), false);
        }
        rec.onCommit(fx.at(fx.joinPc), false);
        rec.onCommit(fx.at(fx.joinPc + instrBytes), false);
    }
    auto h = rec.query(fx.at(fx.branchPc));
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->targetPc, fx.joinPc);
    // Dynamic sources carry no compiler dependence masks.
    EXPECT_EQ(h->depMask, 0u);
}

TEST(SpawnSources, StaticHintsCarryDependenceMasks)
{
    Fixture fx;
    SpawnAnalysis sa(fx.mod, fx.prog);
    StaticSpawnSource src{HintTable(sa, SpawnPolicy::postdoms())};
    auto h = src.query(fx.at(fx.branchPc));
    ASSERT_TRUE(h.has_value());
    // The then-block writes t0, which is dead at the join in this
    // fixture; masks never contain r0 regardless.
    EXPECT_EQ(h->depMask & 1u, 0u);
}

TEST(SpawnSources, ASourceThatNeverHintsChangesNoCycle)
{
    // It declares only query(), so it trains by default: commit hands
    // every instruction to the interface's onCommit, which ignores
    // it. With no hint nothing spawns, and the machine runs the
    // superscalar's cycles on the same contexts.
    struct Silent : SpawnSource
    {
        std::optional<SpawnHint>
        query(const LinkedInstr &) override
        {
            return std::nullopt;
        }
    } silent;
    Session s = Session::open("twolf", 0.05);
    const MachineConfig cfg;
    const TimingResult with = runTiming(cfg, s.trace(), &silent, "x");
    const TimingResult without = runTiming(cfg, s.trace(), nullptr, "x");
    EXPECT_EQ(with.spawns, 0u);
    EXPECT_EQ(with.instrs, without.instrs);
    EXPECT_EQ(with.cycles, without.cycles);
}

} // namespace
} // namespace polyflow
