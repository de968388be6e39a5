/**
 * @file
 * Unit tests for the machine-side predictors and memories: gshare,
 * indirect target prediction, the return address stack, the cache
 * hierarchy, the store-set and register dependence predictors, and
 * the trace index, which is checked against full scans of every
 * workload's trace.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/builder.hh"
#include "isa/functional_sim.hh"
#include "polyflow.hh"
#include "sim/branch_pred.hh"
#include "sim/cache.hh"
#include "sim/dep_predictors.hh"
#include "sim/trace_index.hh"

namespace polyflow {
namespace {

TEST(Gshare, LearnsBiasedBranch)
{
    GsharePredictor g;
    std::uint32_t h = 0;
    for (int i = 0; i < 50; ++i) {
        g.update(0x4000, h, true);
        h = g.shiftHistory(h, true);
    }
    EXPECT_TRUE(g.predict(0x4000, h));
}

TEST(Gshare, LearnsAlternatingWithHistory)
{
    GsharePredictor g;
    std::uint32_t h = 0;
    int correct = 0, total = 0;
    for (int i = 0; i < 400; ++i) {
        bool taken = i % 2 == 0;
        bool pred = g.predict(0x4000, h);
        if (i > 100) {
            ++total;
            correct += (pred == taken);
        }
        g.update(0x4000, h, taken);
        h = g.shiftHistory(h, taken);
    }
    // With 8 bits of history an alternating pattern is learnable.
    EXPECT_GT(correct * 100, total * 95);
}

TEST(IndirectPredictor, LastTargetBehaviour)
{
    IndirectPredictor p;
    EXPECT_EQ(p.predict(0x100), invalidAddr);
    p.update(0x100, 0x2000);
    EXPECT_EQ(p.predict(0x100), 0x2000u);
    p.update(0x100, 0x3000);
    EXPECT_EQ(p.predict(0x100), 0x3000u);
}

TEST(ReturnAddressStack, LifoAndOverflow)
{
    ReturnAddressStack ras(4);
    for (Addr a = 1; a <= 6; ++a)
        ras.push(a * 0x10);
    // Capacity 4: oldest two dropped.
    EXPECT_EQ(ras.pop(), 0x60u);
    EXPECT_EQ(ras.pop(), 0x50u);
    EXPECT_EQ(ras.pop(), 0x40u);
    EXPECT_EQ(ras.pop(), 0x30u);
    EXPECT_EQ(ras.pop(), invalidAddr);
}

TEST(Cache, HitsAfterFill)
{
    Cache c({1024, 2, 64, 10});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1038));  // same 64B line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 1KB, 2-way, 64B lines -> 8 sets; addresses 512 bytes apart
    // map to the same set.
    Cache c({1024, 2, 64, 10});
    Addr a = 0x0, b = 0x200, d = 0x400;
    EXPECT_FALSE(c.access(a));
    EXPECT_FALSE(c.access(b));
    EXPECT_FALSE(c.access(d));  // evicts LRU = a
    // b and d stayed; touching b then d leaves b the LRU way.
    EXPECT_TRUE(c.access(b));
    EXPECT_TRUE(c.access(d));
    EXPECT_FALSE(c.access(a));  // a was evicted; refilling evicts b
    EXPECT_TRUE(c.access(d));
    EXPECT_FALSE(c.access(b));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache({1000, 3, 60, 10}), std::runtime_error);
}

TEST(MemHierarchy, LatenciesCompose)
{
    MachineConfig cfg;
    MemHierarchy h(cfg);
    // Cold: L1 miss + L2 miss.
    EXPECT_EQ(h.accessData(0x8000),
              1 + cfg.l1d.missLatency + cfg.l2.missLatency);
    // Warm in both.
    EXPECT_EQ(h.accessData(0x8000), 1);
    // A different address in the same L2 line but different L1
    // line: L1 miss, L2 hit.
    EXPECT_EQ(h.accessData(0x8040), 1 + cfg.l1d.missLatency);
}

TEST(MemHierarchy, InstrAndDataAreSeparateL1s)
{
    MachineConfig cfg;
    MemHierarchy h(cfg);
    h.accessInstr(0x9000);
    // Data access to the same address still misses L1D (hits L2).
    EXPECT_EQ(h.accessData(0x9000), 1 + cfg.l1d.missLatency);
}

TEST(DepPredictors, MemLearnsAndPredicts)
{
    DepPredictors p(64);
    EXPECT_FALSE(p.predictsMemDep(16));
    p.recordMemViolation(16);
    EXPECT_TRUE(p.predictsMemDep(16));
    EXPECT_FALSE(p.predictsRegDep(16));  // kinds are independent
    EXPECT_FALSE(p.predictsMemDep(17));
}

TEST(DepPredictors, RegLearnsConsumers)
{
    DepPredictors p(64);
    EXPECT_FALSE(p.predictsRegDep(32));
    p.recordRegViolation(32);
    EXPECT_TRUE(p.predictsRegDep(32));
    EXPECT_FALSE(p.predictsMemDep(32));
}

TEST(TraceIndex, NextOccurrence)
{
    // Build a 3-iteration loop and index its trace.
    Module m("t");
    Function &f = m.createFunction("main");
    BlockId loop;
    {
        FunctionBuilder b(f);
        loop = b.newBlock();
        BlockId done = b.newBlock();
        b.li(reg::t0, 3);
        b.jump(loop);
        b.setBlock(loop);
        b.addi(reg::t0, reg::t0, -1);
        b.bne(reg::t0, reg::zero, loop);
        b.setBlock(done);
        b.halt();
    }
    LinkedProgram p = m.link();
    FunctionalOptions opt;
    opt.recordTrace = true;
    auto r = runFunctional(p, opt);
    TraceIndex idx(r.trace);

    Addr loopPc = f.block(loop).startAddr();
    TraceIdx first = idx.nextOccurrence(loopPc, 0);
    ASSERT_NE(first, invalidTrace);
    TraceIdx second = idx.nextOccurrence(loopPc, first);
    ASSERT_NE(second, invalidTrace);
    EXPECT_GT(second, first);
    // After the last occurrence, nothing.
    TraceIdx third = idx.nextOccurrence(loopPc, second);
    ASSERT_NE(third, invalidTrace);
    EXPECT_EQ(idx.nextOccurrence(loopPc, third), invalidTrace);
    EXPECT_EQ(idx.nextOccurrence(0xdead, 0), invalidTrace);

    // PCs outside the program: past its code, and inside its code
    // range but not at an instruction.
    EXPECT_EQ(idx.nextOccurrence(p.codeEnd(), 0), invalidTrace);
    EXPECT_EQ(idx.nextOccurrence(loopPc + 1, 0), invalidTrace);

    // The halt occurs once, as the trace's last instruction: found
    // from just before it, not from it.
    const TraceIdx last = TraceIdx(r.trace.size() - 1);
    const Addr haltPc = r.trace.staticOf(last).addr;
    EXPECT_EQ(idx.nextOccurrence(haltPc, last - 1), last);
    EXPECT_EQ(idx.nextOccurrence(haltPc, last), invalidTrace);
}

/** The scale the index checks run every workload at. */
constexpr double kIndexScale = 0.1;

/** Is image @p k a spawn target: a block start or a call's return
 *  address? */
bool
isTarget(const LinkedProgram &p, size_t k)
{
    return p.image()[k].blockStart ||
        (k > 0 && p.image()[k - 1].instr.isCall());
}

TEST(TraceIndex, OccurrencesMatchAFullScan)
{
    constexpr TraceIdx stride = 97;
    for (const std::string &name : allWorkloadNames()) {
        SCOPED_TRACE(name);
        const Session s = Session::open(name, kIndexScale);
        const Trace &tr = s.trace();
        const LinkedProgram &p = s.program();
        const TraceIndex idx(tr);
        const TraceIdx n = TraceIdx(tr.size());

        // Walking down the trace, next[k] is the first position of
        // image k past the current one.
        std::vector<TraceIdx> next(p.size(), invalidTrace);
        size_t checked = 0;
        for (TraceIdx i = n; i-- > 0;) {
            if (i % stride == 0) {
                for (size_t k = 0; k < p.size(); ++k) {
                    if (!isTarget(p, k))
                        continue;
                    ASSERT_EQ(idx.nextOccurrence(p.image()[k].addr, i),
                              next[k])
                        << "image " << k << " after " << i;
                    ++checked;
                }
            }
            next[tr.instrs[i].img()] = i;
        }
        EXPECT_GT(checked, 0u);

        // Each store's consumers are the loads naming it, ascending.
        std::vector<std::vector<TraceIdx>> consumers(tr.sideSize());
        for (TraceIdx i = 0; i < n; ++i) {
            if (const TraceIdx st = tr.memProd(i);
                st != invalidTrace)
                consumers[tr.side(st)].push_back(i);
        }
        for (std::uint32_t side = 0; side < tr.sideSize(); ++side) {
            const TraceIndex::Span got = idx.consumersOf(side);
            ASSERT_EQ(std::vector<TraceIdx>(got.begin(), got.end()),
                      consumers[side])
                << "side slot " << side;
        }
    }
}

TEST(TraceIndex, EverySourceTargetIsIndexed)
{
    // Each source's targets are outside the program (invalidTrace)
    // or indexed; a target the index left out would throw.
    size_t learntTargets = 0;
    for (const std::string &name : allWorkloadNames()) {
        SCOPED_TRACE(name);
        const Session s = Session::open(name, kIndexScale);
        const TraceIndex idx(s.trace());
        auto expectIndexed = [&](Addr pc, const char *source) {
            EXPECT_NO_THROW(idx.nextOccurrence(pc, 0))
                << source << " target " << pc;
        };
        for (const SpawnPoint &sp : s.analysis().points())
            expectIndexed(sp.targetPc, "SpawnAnalysis");
        DmtSpawnSource dmt;
        for (const LinkedInstr &li : s.program().image()) {
            if (const auto hint = dmt.query(li))
                expectIndexed(hint->targetPc, "DMT");
        }
        ReconSpawnSource recon;
        runTiming(MachineConfig{}, s.trace(), &recon, "rec_pred", &idx);
        const auto learnt = recon.predictor().confidentPredictions();
        learntTargets += learnt.size();
        for (const auto &[branch, target] : learnt)
            expectIndexed(target, "rec_pred");
    }
    EXPECT_GT(learntTargets, 0u);
}

TEST(TraceIndex, RejectsANonTargetPc)
{
    const Session s = Session::open("twolf", kIndexScale);
    const LinkedProgram &p = s.program();
    const TraceIndex idx(s.trace());
    size_t mid = 0;
    while (mid < p.size() && isTarget(p, mid))
        ++mid;
    ASSERT_LT(mid, p.size());
    const Addr pc = p.image()[mid].addr;
    try {
        idx.nextOccurrence(pc, 0);
        FAIL() << "expected a non-target error";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(pc)),
                  std::string::npos)
            << e.what();
    }
    // PCs outside the program are no error.
    EXPECT_EQ(idx.nextOccurrence(0xdead, 0), invalidTrace);
    EXPECT_EQ(idx.nextOccurrence(p.codeEnd(), 0), invalidTrace);
    EXPECT_EQ(idx.nextOccurrence(p.image()[0].addr + 1, 0), invalidTrace);
}

} // namespace
} // namespace polyflow
