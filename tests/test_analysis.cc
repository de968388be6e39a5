/**
 * @file
 * Unit tests for the analysis module: CFG views, dominators,
 * postdominators (against the paper's Figure 1/2 example) and
 * loops. The CHK solver
 * is cross-checked against the independent iterative solver.
 */

#include <gtest/gtest.h>

#include "analysis/cfg_view.hh"
#include "analysis/dominators.hh"
#include "analysis/loops.hh"
#include "ir/builder.hh"
#include "ir/module.hh"
#include "iterative_dom.hh"

namespace polyflow {
namespace {

/**
 * The paper's Figure 1: a loop A->B->{C,D}->E->F with F branching
 * back to A or exiting. Block ids: A=0, B=1, C=2, D=3, E=4, F=5.
 */
Module
makePaperFigure1()
{
    Module m("fig1");
    Function &f = m.createFunction("f");
    FunctionBuilder b(f);
    BlockId B = b.newBlock("B");
    BlockId C = b.newBlock("C");
    BlockId D = b.newBlock("D");
    BlockId E = b.newBlock("E");
    BlockId F = b.newBlock("F");
    BlockId X = b.newBlock("exit");

    // A: falls through to B.
    b.addi(reg::t0, reg::t0, 1);
    b.setBlock(B);
    b.beq(reg::t1, reg::zero, D);  // B -> C (fall) or D (taken)
    b.setBlock(C);
    b.jump(E);
    b.setBlock(D);
    b.addi(reg::t2, reg::t2, 1);   // falls to E
    b.setBlock(E);
    b.addi(reg::t3, reg::t3, 1);   // falls to F
    b.setBlock(F);
    b.bne(reg::t0, reg::t4, 0);    // back edge F -> A
    b.setBlock(X);
    b.halt();
    return m;
}

constexpr int A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, X = 6;

TEST(CfgView, PaperFigure1Shape)
{
    Module m = makePaperFigure1();
    m.link();
    CfgView cfg(m.function(0));
    EXPECT_EQ(cfg.numNodes(), 8);  // 7 blocks + virtual exit
    EXPECT_TRUE(cfg.exitReachesAll());
    for (int n = 0; n < 7; ++n)
        EXPECT_TRUE(cfg.reachable(n)) << n;

    auto has = [&](int from, int to) {
        for (int s : cfg.succs(from)) {
            if (s == to)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has(A, B));
    EXPECT_TRUE(has(B, C));
    EXPECT_TRUE(has(B, D));
    EXPECT_TRUE(has(C, E));
    EXPECT_TRUE(has(D, E));
    EXPECT_TRUE(has(E, F));
    EXPECT_TRUE(has(F, A));
    EXPECT_TRUE(has(F, X));
    EXPECT_TRUE(has(X, cfg.exitNode()));
}

TEST(PostDominators, PaperFigure2Tree)
{
    Module m = makePaperFigure1();
    m.link();
    CfgView cfg(m.function(0));
    PostDominatorTree pdt(cfg);

    // Figure 2: E is the immediate postdominator of B, C and D;
    // F of E; A's ipdom is B; F's ipdom is the exit block X.
    EXPECT_EQ(pdt.ipdomBlock(B), E);
    EXPECT_EQ(pdt.ipdomBlock(C), E);
    EXPECT_EQ(pdt.ipdomBlock(D), E);
    EXPECT_EQ(pdt.ipdomBlock(E), F);
    EXPECT_EQ(pdt.ipdomBlock(A), B);
    EXPECT_EQ(pdt.ipdomBlock(F), X);

    // Postdominance is reflexive and transitive up the tree.
    EXPECT_TRUE(pdt.postDominates(E, B));
    EXPECT_TRUE(pdt.postDominates(F, B));
    EXPECT_TRUE(pdt.postDominates(B, B));
    EXPECT_FALSE(pdt.postDominates(C, B));
    EXPECT_FALSE(pdt.postDominates(B, E));
}

TEST(Dominators, PaperFigure1Forward)
{
    Module m = makePaperFigure1();
    m.link();
    CfgView cfg(m.function(0));
    DominatorTree dt(cfg);
    EXPECT_EQ(dt.idom(B), A);
    EXPECT_EQ(dt.idom(C), B);
    EXPECT_EQ(dt.idom(D), B);
    EXPECT_EQ(dt.idom(E), B);
    EXPECT_EQ(dt.idom(F), E);
    EXPECT_TRUE(dt.dominates(A, F));
    EXPECT_FALSE(dt.dominates(C, E));
}

TEST(Loops, PaperFigure1Loop)
{
    Module m = makePaperFigure1();
    m.link();
    CfgView cfg(m.function(0));
    DominatorTree dt(cfg);
    LoopForest loops(cfg, dt);

    ASSERT_EQ(loops.loops().size(), 1u);
    const Loop &L = loops.loops()[0];
    EXPECT_EQ(L.header, A);
    ASSERT_EQ(L.latches.size(), 1u);
    EXPECT_EQ(L.latches[0], F);
    EXPECT_EQ(L.blocks.size(), 6u);  // A..F
    EXPECT_TRUE(L.contains(C));
    EXPECT_FALSE(L.contains(X));
    EXPECT_TRUE(loops.isBackEdge(F, A));
    EXPECT_FALSE(loops.isBackEdge(E, F));
    ASSERT_EQ(L.exitEdges.size(), 1u);
    EXPECT_EQ(L.exitEdges[0].first, F);
    EXPECT_EQ(L.exitEdges[0].second, X);
    EXPECT_EQ(loops.innermostLoopOf(C), L.id);
}

/** A nested loop for nesting-forest checks. */
Module
makeNestedLoops()
{
    Module m("nest");
    Function &f = m.createFunction("f");
    FunctionBuilder b(f);
    BlockId outerH = b.newBlock("outerH");
    BlockId innerH = b.newBlock("innerH");
    BlockId innerL = b.newBlock("innerL");
    BlockId outerL = b.newBlock("outerL");
    BlockId done = b.newBlock("done");
    b.li(reg::t0, 3);
    b.setBlock(outerH);
    b.li(reg::t1, 3);
    b.setBlock(innerH);
    b.addi(reg::t2, reg::t2, 1);
    b.setBlock(innerL);
    b.addi(reg::t1, reg::t1, -1);
    b.bne(reg::t1, reg::zero, innerH);
    b.setBlock(outerL);
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, outerH);
    b.setBlock(done);
    b.halt();
    return m;
}

TEST(Loops, NestingForest)
{
    Module m = makeNestedLoops();
    m.link();
    CfgView cfg(m.function(0));
    DominatorTree dt(cfg);
    LoopForest loops(cfg, dt);

    ASSERT_EQ(loops.loops().size(), 2u);
    const Loop *inner = nullptr, *outer = nullptr;
    for (const Loop &L : loops.loops()) {
        if (L.header == 2)
            inner = &L;
        if (L.header == 1)
            outer = &L;
    }
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(inner->parent, outer->id);
    EXPECT_EQ(inner->depth, 2);
    EXPECT_EQ(outer->depth, 1);
    EXPECT_EQ(outer->parent, -1);
    // Inner blocks report the inner loop as innermost.
    EXPECT_EQ(loops.innermostLoopOf(2), inner->id);
    // Outer-only blocks report the outer loop.
    EXPECT_EQ(loops.innermostLoopOf(4), outer->id);
}

TEST(Dominators, ChkMatchesIterativeOnFigure1)
{
    Module m = makePaperFigure1();
    m.link();
    CfgView cfg(m.function(0));
    DominatorTree dt(cfg);
    PostDominatorTree pdt(cfg);

    auto domSets = iterativeDoms(cfg);
    auto domIdoms = idomsFromSets(domSets, cfg.entryNode());
    auto pdomSets = iterativePostDoms(cfg);
    auto pdomIdoms = idomsFromSets(pdomSets, cfg.exitNode());

    for (int n = 0; n < cfg.numNodes(); ++n) {
        if (!cfg.reachable(n))
            continue;
        if (n != cfg.entryNode()) {
            EXPECT_EQ(dt.idom(n), domIdoms[n]) << "idom of " << n;
        }
        if (n != cfg.exitNode()) {
            EXPECT_EQ(pdt.idom(n), pdomIdoms[n]) << "ipdom of " << n;
        }
    }
}

TEST(PostDominators, ThrowsOnInfiniteLoop)
{
    Module m("inf");
    Function &f = m.createFunction("f");
    FunctionBuilder b(f);
    BlockId loop = b.newBlock();
    b.jump(loop);
    b.setBlock(loop);
    b.jump(loop);
    m.link();
    CfgView cfg(f);
    EXPECT_FALSE(cfg.exitReachesAll());
    EXPECT_THROW(PostDominatorTree pdt(cfg), std::runtime_error);
}

} // namespace
} // namespace polyflow
