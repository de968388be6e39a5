/**
 * @file
 * Tests pinning down front-end details of the timing model: the
 * taken-branch-per-cycle limit, the fetch-queue cap, frontend
 * depth, I-cache line behaviour during fetch, the biased-ICount
 * fetch arbitration, and the per-image record fetch reads instead
 * of decoding each fetched instruction.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "ir/builder.hh"
#include "polyflow.hh"
#include "sim/machine_state.hh"

namespace polyflow {
namespace {

/** Functional trace of a built module (keeps the program alive). */
struct Built
{
    Module mod{"t"};
    LinkedProgram prog;
    std::unique_ptr<FunctionalResult> fr;

    void
    finish(bool record = true)
    {
        prog = mod.link();
        FunctionalOptions opt;
        opt.recordTrace = record;
        fr = std::make_unique<FunctionalResult>(
            runFunctional(prog, opt));
    }
};

TEST(FetchDetails, TakenBranchLimitThrottlesJumpChains)
{
    // A long chain of unconditional jumps: with at most one taken
    // branch fetched per cycle, the superscalar needs >= one cycle
    // per jump even though each block is one instruction.
    Built b;
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        constexpr int n = 200;
        std::vector<BlockId> blocks;
        for (int i = 0; i < n; ++i)
            blocks.push_back(fb.newBlock());
        fb.jump(blocks[0]);
        for (int i = 0; i < n; ++i) {
            fb.setBlock(blocks[i]);
            if (i + 1 < n)
                fb.jump(blocks[i + 1]);
            else
                fb.halt();
        }
    }
    b.finish();
    TimingResult r = runTiming(MachineConfig::superscalar(), b.fr->trace,
                           nullptr, "ss");
    EXPECT_GE(r.cycles, 200u);
}

TEST(FetchDetails, StraightLineFetchesFullWidth)
{
    // Independent straight-line code reaches several IPC once the
    // lines are warm (loop over the same code).
    Built b;
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        BlockId loop = fb.newBlock();
        BlockId done = fb.newBlock();
        fb.li(reg::t1, 50);
        fb.jump(loop);
        fb.setBlock(loop);
        for (int i = 0; i < 24; ++i)
            fb.addi(RegId(reg::s0 + i % 8), reg::a0, i);
        fb.addi(reg::t1, reg::t1, -1);
        fb.bne(reg::t1, reg::zero, loop);
        fb.setBlock(done);
        fb.halt();
    }
    b.finish();
    TimingResult r = runTiming(MachineConfig::superscalar(), b.fr->trace,
                           nullptr, "ss");
    EXPECT_GT(r.ipc(), 3.0);
}

TEST(FetchDetails, FrontendDepthBoundsBestCaseLatency)
{
    // Even a single instruction takes at least
    // frontendDepth + issue + complete cycles.
    Built b;
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        fb.halt();
    }
    b.finish();
    MachineConfig cfg = MachineConfig::superscalar();
    TimingResult r = runTiming(cfg, b.fr->trace, nullptr, "ss");
    EXPECT_GE(r.cycles, std::uint64_t(frontendDepth + 1));
    EXPECT_LE(r.cycles, 200u);  // and not absurdly slow
}

TEST(FetchDetails, ColdICacheChargesPerLine)
{
    // 256 straight-line instructions = 8 lines of 128B. Every line
    // misses L1I and L2 exactly once on a cold start.
    Built b;
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        for (int i = 0; i < 255; ++i)
            fb.nop();
        fb.halt();
    }
    b.finish();
    MachineConfig cfg = MachineConfig::superscalar();
    TimingResult r = runTiming(cfg, b.fr->trace, nullptr, "ss");
    EXPECT_EQ(r.icacheMisses, 8u);
    // Each cold line costs the full L1->L2->mem latency.
    EXPECT_GE(r.cycles,
              8u * std::uint64_t(cfg.l1i.missLatency +
                                 cfg.l2.missLatency));
}

TEST(FetchDetails, MispredictPenaltyHasFloor)
{
    // One hard-to-predict branch per loop iteration: cycles per
    // iteration on the correct path must reflect at least the
    // minimum penalty on mispredicted iterations.
    Built b;
    Function &f = b.mod.createFunction("main");
    // Pseudo-random branch bits defeat gshare.
    Addr bits = b.mod.allocData("bits", 512 * 8);
    {
        std::vector<std::uint8_t> raw(512 * 8, 0);
        std::uint64_t x = 99;
        for (int i = 0; i < 512; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            raw[size_t(i) * 8] = x & 1;
        }
        b.mod.setData(bits, std::move(raw));
    }
    {
        FunctionBuilder fb(f);
        BlockId loop = fb.newBlock();
        BlockId thenB = fb.newBlock();
        BlockId latch = fb.newBlock();
        BlockId done = fb.newBlock();
        fb.li(reg::t0, std::int64_t(bits));
        fb.li(reg::t1, 512);
        fb.jump(loop);
        fb.setBlock(loop);
        fb.ld(reg::t2, reg::t0, 0);
        fb.beq(reg::t2, reg::zero, latch);
        fb.setBlock(thenB);
        fb.addi(reg::t3, reg::t3, 1);
        fb.setBlock(latch);
        fb.addi(reg::t0, reg::t0, 8);
        fb.addi(reg::t1, reg::t1, -1);
        fb.bne(reg::t1, reg::zero, loop);
        fb.setBlock(done);
        fb.halt();
    }
    b.finish();
    MachineConfig cfg = MachineConfig::superscalar();
    TimingResult r = runTiming(cfg, b.fr->trace, nullptr, "ss");
    ASSERT_GT(r.branchMispredicts, 100u);
    // Lower bound: mispredicts * minimum penalty.
    EXPECT_GE(r.cycles,
              r.branchMispredicts *
                  std::uint64_t(minMispredictPenalty) / 2);
}

TEST(FetchDetails, PolyFlowFetchesFromTwoTasks)
{
    // Two independent halves separated by a procFT spawn: PolyFlow
    // with fetchTasksPerCycle=2 beats a config limited to 1.
    Built b;
    Function &g = b.mod.createFunction("work");
    {
        FunctionBuilder fb(g);
        BlockId loop = fb.newBlock();
        BlockId done = fb.newBlock();
        fb.li(reg::t1, 30);
        fb.jump(loop);
        fb.setBlock(loop);
        for (int i = 0; i < 24; ++i)
            fb.addi(RegId(reg::t2 + i % 4), reg::a0, i);
        fb.addi(reg::t1, reg::t1, -1);
        fb.bne(reg::t1, reg::zero, loop);
        fb.setBlock(done);
        fb.ret();
    }
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        fb.call(g.id());
        fb.call(g.id());
        fb.halt();
    }
    b.mod.entryFunction(f.id());
    b.finish();

    SpawnAnalysis sa(b.mod, b.prog);
    MachineConfig two;
    two.maxSpawnDistance = 2000;
    MachineConfig one = two;
    one.fetchTasksPerCycle = 1;
    StaticSpawnSource s1{HintTable(sa, SpawnPolicy::procFT())};
    StaticSpawnSource s2{HintTable(sa, SpawnPolicy::procFT())};
    TimingResult rTwo = runTiming(two, b.fr->trace, &s1, "two");
    TimingResult rOne = runTiming(one, b.fr->trace, &s2, "one");
    EXPECT_GT(rTwo.spawns, 0u);
    // Dual-task fetch must help when fetch bandwidth is the
    // bottleneck (small predictor interactions aside).
    EXPECT_LE(rTwo.cycles, rOne.cycles * 101 / 100);
}

bool
sameHint(const SpawnHint &a, const SpawnHint &b)
{
    return a.targetPc == b.targetPc && a.kind == b.kind &&
        a.depMask == b.depMask;
}

TEST(FetchDetails, PerImageRecordAgreesWithTheDecodersOnEveryWorkload)
{
    // A line size other than the default, so the line number is not
    // an accident of one divisor.
    MachineConfig cfg;
    cfg.l1i.lineBytes = 32;
    const SpawnPolicy policies[] = {
        SpawnPolicy::loop(),    SpawnPolicy::loopFT(),
        SpawnPolicy::procFT(),  SpawnPolicy::hammock(),
        SpawnPolicy::other(),   SpawnPolicy::postdoms(),
    };
    std::set<OpClass> seen;
    for (const std::string &name : allWorkloadNames()) {
        SCOPED_TRACE(name);
        Workload w = buildWorkload(name, 0.02);
        FunctionalOptions opt;
        opt.recordTrace = true;
        const FunctionalResult r = runFunctional(w.prog, opt);
        const auto &image = w.prog.image();
        SpawnAnalysis sa(*w.module, w.prog);

        // Fields every source shares: address, line and class.
        auto checkCommon = [&](const sim::MachineState &m) {
            ASSERT_EQ(m.fetchOps.size(), image.size());
            for (size_t k = 0; k < image.size(); ++k) {
                const LinkedInstr &li = image[k];
                const sim::FetchOp &f = m.fetchOps[k];
                ASSERT_EQ(f.pc, li.addr) << "at " << k;
                ASSERT_EQ(f.line, li.addr / Addr(cfg.l1i.lineBytes))
                    << "at " << k;
                ASSERT_EQ(f.cls, li.instr.cls()) << "at " << k;
                seen.insert(f.cls);
            }
        };

        {
            sim::MachineState m(cfg, r.trace, nullptr);
            checkCommon(m);
            EXPECT_FALSE(m.sourceTrains);
            for (const sim::FetchOp &f : m.fetchOps)
                ASSERT_EQ(f.spawn, sim::SpawnAt::None);
        }
        for (const SpawnPolicy &pol : policies) {
            SCOPED_TRACE(pol.name);
            auto table = std::make_shared<const HintTable>(sa, pol);
            StaticSpawnSource src{table};
            sim::MachineState m(cfg, r.trace, &src);
            checkCommon(m);
            EXPECT_FALSE(m.sourceTrains);
            for (size_t k = 0; k < image.size(); ++k) {
                const sim::FetchOp &f = m.fetchOps[k];
                const SpawnPoint *pt = table->lookup(image[k].addr);
                if (!pt) {
                    ASSERT_EQ(f.spawn, sim::SpawnAt::None) << "at " << k;
                    continue;
                }
                ASSERT_EQ(f.spawn, sim::SpawnAt::Fixed) << "at " << k;
                ASSERT_TRUE(sameHint(
                    f.hint, {pt->targetPc, pt->kind, pt->depMask}))
                    << "at " << k;
            }
        }
        // A source that declares nothing is asked at every fetch and
        // fed every commit, as before the record existed.
        {
            struct Undeclared : SpawnSource
            {
                std::optional<SpawnHint>
                query(const LinkedInstr &) override
                {
                    return std::nullopt;
                }
            } plain;
            sim::MachineState m(cfg, r.trace, &plain);
            checkCommon(m);
            EXPECT_TRUE(m.sourceTrains);
            for (const sim::FetchOp &f : m.fetchOps)
                ASSERT_EQ(f.spawn, sim::SpawnAt::Ask);
        }
        // The dynamic sources: DMT's hints are fixed; the
        // reconvergence source asks at each conditional branch, and
        // trains.
        DmtSpawnSource dmt;
        ReconSpawnSource rec;
        for (SpawnSource *src : {static_cast<SpawnSource *>(&dmt),
                                 static_cast<SpawnSource *>(&rec)}) {
            sim::MachineState m(cfg, r.trace, src);
            checkCommon(m);
            EXPECT_EQ(m.sourceTrains, src == &rec);
            for (size_t k = 0; k < image.size(); ++k) {
                const LinkedInstr &li = image[k];
                const sim::FetchOp &f = m.fetchOps[k];
                if (src == &rec && li.instr.isCondBranch()) {
                    ASSERT_EQ(f.spawn, sim::SpawnAt::Ask) << "at " << k;
                    continue;
                }
                const auto hint = src->query(li);
                ASSERT_EQ(f.spawn, hint ? sim::SpawnAt::Fixed
                                        : sim::SpawnAt::None)
                    << "at " << k;
                if (hint) {
                    ASSERT_TRUE(sameHint(f.hint, *hint)) << "at " << k;
                }
            }
        }
    }

    // No workload makes an indirect call, so a program that is never
    // run past its halt supplies one, with a return and an indirect
    // jump beside it; the record covers the whole image either way.
    Built b;
    Function &callee = b.mod.createFunction("callee");
    {
        FunctionBuilder fb(callee);
        BlockId there = fb.newBlock();
        fb.callIndirect(reg::t0);
        fb.jr(reg::t1, {there});
        fb.setBlock(there);
        fb.ret();
    }
    Function &main = b.mod.createFunction("main");
    {
        FunctionBuilder fb(main);
        fb.call(callee.id());
        fb.halt();
    }
    b.mod.entryFunction(main.id());
    b.prog = b.mod.link();
    FunctionalOptions opt;
    opt.recordTrace = true;
    opt.maxInstrs = 1;
    const FunctionalResult r = runFunctional(b.prog, opt);
    ASSERT_GT(r.trace.size(), 0u);
    sim::MachineState m(cfg, r.trace, nullptr);
    const auto &image = b.prog.image();
    ASSERT_EQ(m.fetchOps.size(), image.size());
    for (size_t k = 0; k < image.size(); ++k) {
        ASSERT_EQ(m.fetchOps[k].cls, image[k].instr.cls()) << "at " << k;
        seen.insert(m.fetchOps[k].cls);
    }
    for (OpClass c : {OpClass::CondBranch, OpClass::Call,
                      OpClass::IndirectCall, OpClass::Return,
                      OpClass::IndirectJump}) {
        EXPECT_TRUE(seen.count(c))
            << "control class " << int(c) << " is exercised";
    }
}

} // namespace
} // namespace polyflow
