/**
 * @file
 * Tests for spawn-point identification, classification (Section 2.2
 * taxonomy), policies and hint tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "ir/builder.hh"
#include "isa/functional_sim.hh"
#include "spawn/policy.hh"
#include "spawn/spawn_analysis.hh"
#include "workloads/workloads.hh"

namespace polyflow {
namespace {

/** Find the first point of a given kind, or nullptr. */
const SpawnPoint *
findKind(const SpawnAnalysis &sa, SpawnKind k)
{
    for (const SpawnPoint &p : sa.points()) {
        if (p.kind == k)
            return &p;
    }
    return nullptr;
}

int
countKind(const SpawnAnalysis &sa, SpawnKind k)
{
    int n = 0;
    for (const SpawnPoint &p : sa.points())
        n += (p.kind == k);
    return n;
}

TEST(SpawnClassify, SimpleIfThenIsHammock)
{
    Module m("t");
    Function &f = m.createFunction("f");
    BlockId thenB, join;
    {
        FunctionBuilder b(f);
        thenB = b.newBlock("then");
        join = b.newBlock("join");
        b.beq(reg::a0, reg::zero, join);
        b.setBlock(thenB);
        b.addi(reg::t0, reg::t0, 1);
        b.setBlock(join);
        b.halt();
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);

    const SpawnPoint *h = findKind(sa, SpawnKind::Hammock);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->triggerPc, f.block(0).termAddr());
    EXPECT_EQ(h->targetPc, f.block(join).startAddr());
    EXPECT_EQ(countKind(sa, SpawnKind::LoopFT), 0);
    EXPECT_EQ(countKind(sa, SpawnKind::Other), 0);
}

TEST(SpawnClassify, IfThenElseIsHammock)
{
    Module m("t");
    Function &f = m.createFunction("f");
    BlockId thenB, elseB, join;
    {
        FunctionBuilder b(f);
        thenB = b.newBlock("then");
        elseB = b.newBlock("else");
        join = b.newBlock("join");
        b.beq(reg::a0, reg::zero, elseB);
        b.setBlock(thenB);
        b.addi(reg::t0, reg::t0, 1);
        b.jump(join);
        b.setBlock(elseB);
        b.addi(reg::t0, reg::t0, 2);
        b.setBlock(join);
        b.halt();
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);
    const SpawnPoint *h = findKind(sa, SpawnKind::Hammock);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->targetPc, f.block(join).startAddr());
}

TEST(SpawnClassify, LoopBranchIsLoopFT)
{
    Module m("t");
    Function &f = m.createFunction("f");
    BlockId loop, exit;
    {
        FunctionBuilder b(f);
        loop = b.newBlock("loop");
        exit = b.newBlock("exit");
        b.li(reg::t0, 5);
        b.jump(loop);
        b.setBlock(loop);
        b.addi(reg::t0, reg::t0, -1);
        b.bne(reg::t0, reg::zero, loop);
        b.setBlock(exit);
        b.halt();
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);

    // The back branch is a loop branch whose ipdom is the exit.
    const SpawnPoint *ft = findKind(sa, SpawnKind::LoopFT);
    ASSERT_NE(ft, nullptr);
    EXPECT_EQ(ft->triggerPc, f.block(loop).termAddr());
    EXPECT_EQ(ft->targetPc, f.block(exit).startAddr());

    // And a loop-iteration spawn from the header to the latch
    // (here the same single block).
    const SpawnPoint *li = findKind(sa, SpawnKind::LoopIter);
    ASSERT_NE(li, nullptr);
    EXPECT_EQ(li->triggerPc, f.block(loop).startAddr());
    EXPECT_EQ(li->targetPc, f.block(loop).startAddr());
}

TEST(SpawnClassify, BreakBranchIsLoopFT)
{
    // while (..) { if (cond) break; body }
    Module m("t");
    Function &f = m.createFunction("f");
    BlockId header, body, latch, exit;
    {
        FunctionBuilder b(f);
        header = b.newBlock("header");
        body = b.newBlock("body");
        latch = b.newBlock("latch");
        exit = b.newBlock("exit");
        b.li(reg::t0, 5);
        b.jump(header);
        b.setBlock(header);
        b.beq(reg::a0, reg::zero, exit);  // break
        b.setBlock(body);
        b.addi(reg::t1, reg::t1, 1);
        b.setBlock(latch);
        b.addi(reg::t0, reg::t0, -1);
        b.bne(reg::t0, reg::zero, header);
        b.setBlock(exit);
        b.halt();
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);

    // Both the break and the back branch leave the loop: 2 loopFT.
    EXPECT_EQ(countKind(sa, SpawnKind::LoopFT), 2);
    EXPECT_EQ(countKind(sa, SpawnKind::Hammock), 0);
}

TEST(SpawnClassify, CallsAreProcFT)
{
    Module m("t");
    Function &g = m.createFunction("g");
    {
        FunctionBuilder b(g);
        b.ret();
    }
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        b.call(g.id());
        b.call(g.id());
        b.halt();
    }
    m.entryFunction(f.id());
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);
    EXPECT_EQ(countKind(sa, SpawnKind::ProcFT), 2);
    const SpawnPoint *pf = findKind(sa, SpawnKind::ProcFT);
    ASSERT_NE(pf, nullptr);
    EXPECT_EQ(pf->targetPc, pf->triggerPc + instrBytes);
}

TEST(SpawnClassify, IndirectJumpIsOther)
{
    Module m("t");
    Function &f = m.createFunction("f");
    BlockId c0, c1, join;
    {
        FunctionBuilder b(f);
        c0 = b.newBlock("c0");
        c1 = b.newBlock("c1");
        join = b.newBlock("join");
        b.jr(reg::a0, {c0, c1});
        b.setBlock(c0);
        b.addi(reg::t0, reg::t0, 1);
        b.jump(join);
        b.setBlock(c1);
        b.addi(reg::t0, reg::t0, 2);
        b.setBlock(join);
        b.halt();
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);
    const SpawnPoint *o = findKind(sa, SpawnKind::Other);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->targetPc, f.block(join).startAddr());
}

TEST(SpawnClassify, SharedRegionIsOtherNotHammock)
{
    // A branch whose region is entered from outside (goto-like
    // shared code) fails the single-entry hammock test.
    Module m("t");
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        BlockId pre = b.newBlock("pre");
        BlockId shared = b.newBlock("shared");
        BlockId branchB = b.newBlock("branch");
        BlockId other = b.newBlock("other");
        BlockId join = b.newBlock("join");
        b.beq(reg::a0, reg::zero, branchB);  // entry: skip ahead
        b.setBlock(pre);
        b.jump(shared);
        b.setBlock(shared);                  // entered two ways
        b.addi(reg::t0, reg::t0, 1);
        b.jump(join);
        b.setBlock(branchB);
        b.beq(reg::a1, reg::zero, shared);   // branch into shared
        b.setBlock(other);
        b.addi(reg::t0, reg::t0, 2);
        b.setBlock(join);
        b.halt();
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);
    // The branch in "branch" targets shared code that is also
    // reachable from "pre": not a simple hammock.
    bool sawOther = false;
    for (const SpawnPoint &sp : sa.points()) {
        if (sp.kind == SpawnKind::Other)
            sawOther = true;
    }
    EXPECT_TRUE(sawOther);
}

TEST(SpawnClassify, BranchToExitHasNoSpawn)
{
    // A branch whose ipdom is the virtual exit produces no spawn.
    Module m("t");
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        BlockId a = b.newBlock("a");
        BlockId bb = b.newBlock("b");
        b.beq(reg::a0, reg::zero, bb);
        b.setBlock(a);
        b.halt();      // one side halts
        b.setBlock(bb);
        b.halt();      // the other halts too: no common postdom
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);
    EXPECT_EQ(sa.census().postdomTotal(), 0);
}

TEST(SpawnPolicy, MasksMatchPaperLineup)
{
    EXPECT_EQ(SpawnPolicy::loop().kindMask, kinds::loopIter);
    EXPECT_EQ(SpawnPolicy::postdoms().kindMask,
              kinds::loopFT | kinds::procFT | kinds::hammock |
                  kinds::other);
    EXPECT_FALSE(SpawnPolicy::postdoms().kindMask & kinds::loopIter);
    EXPECT_EQ(SpawnPolicy::postdomsMinus(SpawnKind::Hammock).kindMask,
              kinds::postdoms & ~kinds::hammock);
    EXPECT_EQ(SpawnPolicy::loopProcFTLoopFT().kindMask,
              kinds::loopIter | kinds::procFT | kinds::loopFT);
}

TEST(HintTable, FiltersByPolicyAndResolvesConflicts)
{
    Module m("t");
    Function &f = m.createFunction("f");
    BlockId loop, exit;
    {
        FunctionBuilder b(f);
        loop = b.newBlock("loop");
        exit = b.newBlock("exit");
        b.li(reg::t0, 5);
        b.jump(loop);
        b.setBlock(loop);
        b.addi(reg::t0, reg::t0, -1);
        b.bne(reg::t0, reg::zero, loop);
        b.setBlock(exit);
        b.halt();
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);

    // Single-block loop: the loop-iteration trigger is the block
    // start; the loopFT trigger is the branch. Under "loop" only
    // the former exists; under loopFT only the latter.
    HintTable loopT(sa, SpawnPolicy::loop());
    HintTable ftT(sa, SpawnPolicy::loopFT());
    EXPECT_EQ(loopT.size(), 1u);
    EXPECT_EQ(ftT.size(), 1u);
    EXPECT_NE(loopT.lookup(f.block(loop).startAddr()), nullptr);
    EXPECT_EQ(loopT.lookup(f.block(loop).termAddr()), nullptr);
    EXPECT_NE(ftT.lookup(f.block(loop).termAddr()), nullptr);

    HintTable none(sa, SpawnPolicy::none());
    EXPECT_EQ(none.size(), 0u);
}

TEST(HintTable, LoopFTWinsALoopHeaderItSharesWithLoopIter)
{
    // while (t0 != 0) t0--; : the header is one conditional branch,
    // so the loop-iteration trigger (the header's start) and the
    // loopFT trigger (its terminator) are one PC.
    Module m("t");
    Function &f = m.createFunction("f");
    BlockId header, body, exit;
    {
        FunctionBuilder b(f);
        header = b.newBlock("header");
        body = b.newBlock("body");
        exit = b.newBlock("exit");
        b.li(reg::t0, 5);
        b.jump(header);
        b.setBlock(header);
        b.beq(reg::t0, reg::zero, exit);
        b.setBlock(body);
        b.addi(reg::t0, reg::t0, -1);
        b.jump(header);
        b.setBlock(exit);
        b.halt();
    }
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);

    const Addr pc = f.block(header).startAddr();
    ASSERT_EQ(f.block(header).termAddr(), pc);
    bool loopFT = false, loopIter = false;
    for (const SpawnPoint &sp : sa.points()) {
        if (sp.triggerPc != pc)
            continue;
        loopFT |= sp.kind == SpawnKind::LoopFT;
        loopIter |= sp.kind == SpawnKind::LoopIter;
    }
    EXPECT_TRUE(loopFT);
    EXPECT_TRUE(loopIter);

    // loop+loopFT (a Fig 10 run) keeps both kinds; the table holds
    // one point per PC, and the postdominator spawn wins.
    HintTable t(sa, SpawnPolicy::loopPlusLoopFT());
    const SpawnPoint *hint = t.lookup(pc);
    ASSERT_NE(hint, nullptr);
    EXPECT_EQ(hint->kind, SpawnKind::LoopFT);
    EXPECT_EQ(hint->targetPc, f.block(exit).startAddr());

    // The same loop with a call heading the header: its start is the
    // call's PC, so the LoopIter point meets a ProcFT one, and
    // loop+procFT+loopFT keeps the ProcFT.
    Module cm("t");
    Function &g = cm.createFunction("g");
    {
        FunctionBuilder b(g);
        b.ret();
    }
    Function &cf = cm.createFunction("f");
    {
        FunctionBuilder b(cf);
        header = b.newBlock("header");
        body = b.newBlock("body");
        exit = b.newBlock("exit");
        b.li(reg::t0, 5);
        b.jump(header);
        b.setBlock(header);
        b.call(g.id());
        b.beq(reg::t0, reg::zero, exit);
        b.setBlock(body);
        b.addi(reg::t0, reg::t0, -1);
        b.jump(header);
        b.setBlock(exit);
        b.halt();
    }
    cm.entryFunction(cf.id());
    LinkedProgram cp = cm.link();
    SpawnAnalysis csa(cm, cp);
    const Addr callPc = cf.block(header).startAddr();
    bool procFT = false;
    loopIter = false;
    for (const SpawnPoint &sp : csa.points()) {
        if (sp.triggerPc != callPc)
            continue;
        procFT |= sp.kind == SpawnKind::ProcFT;
        loopIter |= sp.kind == SpawnKind::LoopIter;
    }
    EXPECT_TRUE(procFT);
    EXPECT_TRUE(loopIter);
    // The analysis lists LoopIter points last; the rule must not
    // depend on that, so check the reversed order too.
    std::vector<SpawnPoint> reversed = csa.points();
    std::reverse(reversed.begin(), reversed.end());
    for (const SpawnAnalysis &a : {csa, SpawnAnalysis(reversed)}) {
        HintTable ct(a, SpawnPolicy::loopProcFTLoopFT());
        hint = ct.lookup(callPc);
        ASSERT_NE(hint, nullptr);
        EXPECT_EQ(hint->kind, SpawnKind::ProcFT);
        EXPECT_EQ(hint->targetPc, callPc + instrBytes);
    }
}

TEST(SpawnCensus, CountsAddUp)
{
    Module m("t");
    Function &g = m.createFunction("g");
    {
        FunctionBuilder b(g);
        b.ret();
    }
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        BlockId thenB = b.newBlock("then");
        BlockId join = b.newBlock("join");
        b.call(g.id());
        b.beq(reg::a0, reg::zero, join);
        b.setBlock(thenB);
        b.addi(reg::t0, reg::t0, 1);
        b.setBlock(join);
        b.halt();
    }
    m.entryFunction(f.id());
    LinkedProgram p = m.link();
    SpawnAnalysis sa(m, p);
    const SpawnCensus &c = sa.census();
    EXPECT_EQ(c.byKind[int(SpawnKind::ProcFT)], 1);
    EXPECT_EQ(c.byKind[int(SpawnKind::Hammock)], 1);
    EXPECT_EQ(c.postdomTotal(), 2);
    auto countKinds = [&](unsigned mask) {
        return std::count_if(sa.points().begin(), sa.points().end(),
                             [&](const SpawnPoint &p) {
                                 return (mask & kindBit(p.kind)) != 0;
                             });
    };
    EXPECT_EQ(countKinds(kinds::postdoms), 2);
    EXPECT_EQ(countKinds(kinds::procFT), 1);
}

/**
 * The dynamic postdominance fact the spawn unit relies on: every
 * dynamic instance of a loopFT, procFT, hammock or other trigger
 * reaches its target later in its own call frame, before that frame
 * returns (or the program halts). Frame ids come from one
 * call/return pass over the trace: the instruction after a call
 * opens a new frame, and the one after a return is back in the
 * caller's.
 */
TEST(SpawnAnalysis, TriggersReachTheirTargetInTheirOwnFrame)
{
    for (const std::string &name : allWorkloadNames()) {
        SCOPED_TRACE(name);
        const Workload w = buildWorkload(name, 0.1);
        const SpawnAnalysis sa(*w.module, w.prog);
        FunctionalOptions opt;
        opt.recordTrace = true;
        const FunctionalResult r = runFunctional(w.prog, opt);
        ASSERT_TRUE(r.halted);
        const Trace &t = r.trace;

        std::vector<std::uint32_t> frame(t.size());
        std::vector<std::uint32_t> callers;
        std::uint32_t current = 0, frames = 1;
        for (TraceIdx i = 0; i < t.size(); ++i) {
            frame[i] = current;
            const Instruction &in = t.staticOf(i).instr;
            if (in.isCall()) {
                callers.push_back(current);
                current = frames++;
            } else if (in.isReturn()) {
                ASSERT_FALSE(callers.empty()) << "return at " << i;
                current = callers.back();
                callers.pop_back();
            }
        }

        // Targets of the postdominator points, by trigger image.
        std::vector<std::vector<Addr>> targets(w.prog.size());
        for (const SpawnPoint &p : sa.points()) {
            if (kindBit(p.kind) & kinds::postdoms)
                targets[w.prog.idxOf(p.triggerPc)].push_back(p.targetPc);
        }

        // Instances still owed their target, by (frame, target PC).
        std::map<std::pair<std::uint32_t, Addr>, std::uint64_t> owed;
        std::uint64_t instances = 0, failures = 0;
        for (TraceIdx i = 0; i < t.size(); ++i) {
            const LinkedInstr &li = t.staticOf(i);
            owed.erase({frame[i], li.addr});
            for (Addr target : targets[t.instrs[i].img()]) {
                ++owed[{frame[i], target}];
                ++instances;
            }
            if (li.instr.isReturn()) {
                // Frame frame[i] ends: what it still owes fails.
                const auto first = owed.lower_bound({frame[i], 0});
                auto last = first;
                for (; last != owed.end() && last->first.first == frame[i];
                     ++last)
                    failures += last->second;
                owed.erase(first, last);
            }
        }
        for (const auto &[key, n] : owed)
            failures += n;
        EXPECT_GT(instances, 0u);
        EXPECT_EQ(failures, 0u) << "of " << instances << " instances";
    }
}

} // namespace
} // namespace polyflow
