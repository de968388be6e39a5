/**
 * @file
 * Fuzz tests: randomly generated structured programs (guaranteed to
 * terminate) run through the whole stack — functional execution,
 * spawn analysis, the superscalar baseline and PolyFlow under
 * several policies — checking global invariants.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ir/builder.hh"
#include "polyflow.hh"
#include "queue_check.hh"
#include "workloads/wl_common.hh"

namespace polyflow {
namespace {

/**
 * Random structured program generator: nested counted loops,
 * if-thens on data bits, loads/stores into a private array and
 * calls to random leaf functions. Termination is guaranteed by
 * construction (all loops count down registers initialized to
 * constants).
 */
class ProgramGen
{
  public:
    explicit ProgramGen(std::uint64_t seed) : _rng(seed) {}

    std::unique_ptr<Module>
    generate()
    {
        auto mod = std::make_unique<Module>("fuzz");
        _data = allocRandomWords(*mod, "data", 64, _rng);

        // A few leaf functions.
        int numLeaves = 1 + int(_rng.range(3));
        std::vector<FuncId> leaves;
        for (int i = 0; i < numLeaves; ++i) {
            Function &fn =
                mod->createFunction("leaf" + std::to_string(i));
            emitLeaf(fn);
            leaves.push_back(fn.id());
        }

        Function &main = mod->createFunction("main");
        {
            FunctionBuilder b(main);
            b.li(reg::gp, std::int64_t(_data));
            emitBody(b, leaves, 0, 3 + int(_rng.range(5)));
            b.halt();
        }
        mod->entryFunction(main.id());
        return mod;
    }

  private:
    void
    emitLeaf(Function &fn)
    {
        FunctionBuilder b(fn);
        int ops = 2 + int(_rng.range(8));
        for (int i = 0; i < ops; ++i)
            randomAlu(b);
        if (_rng.chance(50)) {
            b.ld(reg::t3, reg::gp, std::int64_t(_rng.range(8)) * 8);
            b.add(reg::a0, reg::a0, reg::t3);
        }
        b.ret();
    }

    void
    randomAlu(FunctionBuilder &b)
    {
        RegId rd = RegId(reg::t0 + _rng.range(6));
        RegId rs = RegId(reg::t0 + _rng.range(6));
        switch (_rng.range(5)) {
          case 0: b.add(rd, rd, rs); break;
          case 1: b.xor_(rd, rd, rs); break;
          case 2: b.slli(rd, rs, 1 + _rng.range(5)); break;
          case 3: b.addi(rd, rs, std::int64_t(_rng.range(100))); break;
          default: b.mul(rd, rd, rs); break;
        }
    }

    /** Emit a statement list; recursion depth bounds loop nesting. */
    void
    emitBody(FunctionBuilder &b, const std::vector<FuncId> &leaves,
             int depth, int statements)
    {
        for (int s = 0; s < statements; ++s) {
            switch (_rng.range(6)) {
              case 0:
              case 1:
                randomAlu(b);
                break;
              case 2: {  // if-then on a data bit
                BlockId thenB = b.newBlock();
                BlockId join = b.newBlock();
                b.ld(reg::t6, reg::gp,
                     std::int64_t(_rng.range(16)) * 8);
                b.andi(reg::t6, reg::t6, 1);
                b.beq(reg::t6, reg::zero, join);
                b.setBlock(thenB);
                randomAlu(b);
                randomAlu(b);
                b.setBlock(join);
                break;
              }
              case 3: {  // counted loop
                if (depth >= 2) {
                    randomAlu(b);
                    break;
                }
                // Blocks must be created in layout order (the
                // fall-through successor is the next block id), so
                // the exit block is created only after the body.
                RegId ctr = RegId(reg::s0 + depth);
                b.li(ctr, 2 + std::int64_t(_rng.range(4)));
                BlockId loop = b.newBlock();
                b.jump(loop);
                b.setBlock(loop);
                emitBody(b, leaves, depth + 1,
                         1 + int(_rng.range(3)));
                b.addi(ctr, ctr, -1);
                BlockId done = b.newBlock();
                b.bne(ctr, reg::zero, loop);
                b.setBlock(done);
                break;
              }
              case 4:  // call a leaf
                b.call(leaves[_rng.range(leaves.size())]);
                break;
              default: {  // store + load
                std::int64_t off =
                    std::int64_t(16 + _rng.range(16)) * 8;
                b.sd(reg::t0, reg::gp, off);
                b.ld(reg::t1, reg::gp, off);
                break;
              }
            }
        }
    }

    WlRng _rng;
    Addr _data = 0;
};

/** The cycle-accounting identity: every (cycle x issue-slot) went
 *  to exactly one bucket. Checked on fuzzed CFGs, not just the
 *  curated workloads (tests/test_accounting.cc). */
void
expectSlotIdentity(const TimingResult &r, std::uint64_t width)
{
    EXPECT_EQ(r.issueWidth, width) << r.policyName;
    EXPECT_EQ(r.slotTotal(), r.cycles * r.issueWidth)
        << r.policyName;
    std::uint64_t committed =
        r.slots[static_cast<int>(SlotBucket::Committed)];
    EXPECT_LT(committed, r.instrs) << r.policyName;
    EXPECT_GE(committed + r.issueWidth, r.instrs) << r.policyName;
}

/** Resources squeezed until every queue and context fills. */
MachineConfig
tightConfig()
{
    MachineConfig tight;
    tight.robEntries = 48;
    tight.schedEntries = 8;
    tight.divertEntries = 6;
    tight.numTasks = 4;
    tight.robReservePerOlderTask = 8;
    tight.fetchQueueEntries = 4;
    return tight;
}

class SimFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(SimFuzz, WholeStackInvariants)
{
    ProgramGen gen(GetParam() * 1000003 + 7);
    auto mod = gen.generate();
    LinkedProgram prog = mod->link();

    // Functional execution terminates and is deterministic.
    FunctionalOptions opt;
    opt.recordTrace = true;
    opt.maxInstrs = 2'000'000;
    auto r1 = runFunctional(prog, opt);
    ASSERT_TRUE(r1.halted);
    auto r2 = runFunctional(prog, opt);
    EXPECT_EQ(r1.instrCount, r2.instrCount);
    EXPECT_EQ(r1.finalState->memChecksum(),
              r2.finalState->memChecksum());

    // Spawn analysis runs and classifies without throwing.
    SpawnAnalysis sa(*mod, prog);

    // Superscalar: completes, IPC within machine width.
    TimingResult ss = runTiming(MachineConfig::superscalar(), r1.trace,
                            nullptr, "ss");
    EXPECT_EQ(ss.instrs, r1.trace.size());
    EXPECT_GT(ss.cycles, 0u);
    EXPECT_LE(ss.ipc(), 8.0);
    expectSlotIdentity(ss, 8);

    // PolyFlow under three policies: completes with the same
    // instruction count; spawn bookkeeping consistent.
    for (const SpawnPolicy &pol :
         {SpawnPolicy::postdoms(), SpawnPolicy::loop(),
          SpawnPolicy::loopFTPlusProcFT()}) {
        StaticSpawnSource src{HintTable(sa, pol)};
        TimingResult pf =
            runTiming(MachineConfig{}, r1.trace, &src, pol.name);
        EXPECT_EQ(pf.instrs, r1.trace.size()) << pol.name;
        EXPECT_LE(pf.ipc(), 16.0) << pol.name;
        EXPECT_GE(pf.tasksRetired, 1u) << pol.name;
        EXPECT_EQ(pf.tasksRetired, pf.spawns + 1) << pol.name;
        std::uint64_t byKind = 0;
        for (int k = 0; k < numSpawnKinds; ++k)
            byKind += pf.spawnsByKind[k];
        EXPECT_EQ(byKind, pf.spawns) << pol.name;
        expectSlotIdentity(pf, 8);
    }

    // The dynamic reconvergence source also completes.
    ReconSpawnSource rec;
    TimingResult rr = runTiming(MachineConfig{}, r1.trace, &rec, "rec");
    EXPECT_EQ(rr.instrs, r1.trace.size());
    expectSlotIdentity(rr, 8);
}

TEST_P(SimFuzz, SqueezeResourcesStillCompletes)
{
    ProgramGen gen(GetParam() * 7777 + 23);
    auto mod = gen.generate();
    LinkedProgram prog = mod->link();
    FunctionalOptions opt;
    opt.recordTrace = true;
    auto r = runFunctional(prog, opt);
    ASSERT_TRUE(r.halted);
    SpawnAnalysis sa(*mod, prog);

    // Tiny resources stress the deadlock-freedom argument.
    const MachineConfig tight = tightConfig();
    StaticSpawnSource src{HintTable(sa, SpawnPolicy::postdoms())};
    TimingResult pf = runTiming(tight, r.trace, &src, "tight");
    EXPECT_EQ(pf.instrs, r.trace.size());
    // Slot accounting must stay exact even when every resource
    // (ROB, scheduler, divert queue, contexts) is squeezed.
    expectSlotIdentity(pf, std::uint64_t(tight.pipelineWidth));
}

TEST_P(SimFuzz, QueueWaitersMatchPipelineStateEveryCycle)
{
    // The programs of both tests above, under postdoms on the
    // default and the tight config: after every cycle each
    // scheduler and divert entry is ready or parked exactly once,
    // and the occupancy counts match istate (queue_check.hh).
    for (std::uint64_t seed :
         {std::uint64_t(GetParam()) * 1000003 + 7,
          std::uint64_t(GetParam()) * 7777 + 23}) {
        ProgramGen gen(seed);
        auto mod = gen.generate();
        LinkedProgram prog = mod->link();
        FunctionalOptions opt;
        opt.recordTrace = true;
        auto r = runFunctional(prog, opt);
        ASSERT_TRUE(r.halted);
        SpawnAnalysis sa(*mod, prog);
        const HintTable hints(sa, SpawnPolicy::postdoms());
        for (const MachineConfig &cfg : {MachineConfig{}, tightConfig()}) {
            StaticSpawnSource src{hints};
            sim::MachineState m(cfg, r.trace, &src);
            EXPECT_EQ(qtest::runCheckingQueues(m, m.cycleLimit), "")
                << "seed " << seed;
            // The loop above is the one runTiming runs.
            StaticSpawnSource again{hints};
            EXPECT_EQ(m.now, runTiming(cfg, r.trace, &again, "").cycles)
                << "seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzz, ::testing::Range(0, 15));

} // namespace
} // namespace polyflow
