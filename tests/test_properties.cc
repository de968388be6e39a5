/**
 * @file
 * Property tests over randomly generated CFGs: the CHK dominator /
 * postdominator implementation against the independent iterative
 * solver, structural invariants of dominance, loop invariants, and
 * liveness dataflow invariants.
 */

#include <gtest/gtest.h>

#include <memory>

#include "analysis/cfg_view.hh"
#include "analysis/dominators.hh"
#include "analysis/liveness.hh"
#include "analysis/loops.hh"
#include "ir/builder.hh"
#include "iterative_dom.hh"
#include "workloads/wl_common.hh"

namespace polyflow {
namespace {

/**
 * Generate a random function whose every reachable block can reach
 * the exit (postdominators are then total).
 */
std::unique_ptr<Module>
randomCfg(std::uint64_t seed)
{
    WlRng rng(seed);
    auto mod = std::make_unique<Module>("rand");
    Function &fn = mod->createFunction("f");
    int n = 4 + int(rng.range(20));
    FunctionBuilder b(fn);
    for (int i = 1; i < n; ++i)
        b.newBlock();

    for (int i = 0; i < n; ++i) {
        b.setBlock(i);
        int pad = int(rng.range(3));
        for (int k = 0; k < pad; ++k)
            b.addi(reg::t0, reg::t0, 1);
        if (i == n - 1) {
            b.halt();
            continue;
        }
        int roll = int(rng.range(100));
        int target = int(rng.range(n));
        if (roll < 45) {
            b.beq(reg::t1, reg::zero, target);  // falls to i+1
        } else if (roll < 65) {
            b.jump(target);
        } else if (roll < 72) {
            b.ret();
        } else {
            b.addi(reg::t2, reg::t2, 1);  // plain fall-through
        }
    }

    // Repair blocks that cannot reach the exit (infinite regions):
    // rewrite their terminator into a jump to the final block.
    for (int guard = 0; guard < n + 2; ++guard) {
        fn.resolveFallThroughs();
        CfgView cfg(fn);
        if (cfg.exitReachesAll())
            break;
        // Find reachable nodes that cannot reach the exit.
        std::vector<bool> toExit(cfg.numNodes(), false);
        std::vector<int> work{cfg.exitNode()};
        toExit[cfg.exitNode()] = true;
        while (!work.empty()) {
            int x = work.back();
            work.pop_back();
            for (int p : cfg.preds(x)) {
                if (!toExit[p]) {
                    toExit[p] = true;
                    work.push_back(p);
                }
            }
        }
        for (int i = 0; i < n; ++i) {
            if (cfg.reachable(i) && !toExit[i]) {
                BasicBlock &bb = fn.block(i);
                if (bb.hasTerminator())
                    bb.instrs().pop_back();
                bb.takenSucc(invalidBlock);
                bb.fallSucc(invalidBlock);
                b.setBlock(i);
                b.jump(n - 1);
                break;  // re-evaluate after each repair
            }
        }
    }
    fn.resolveFallThroughs();
    fn.validate();
    return mod;
}

class CfgProperty : public ::testing::TestWithParam<int>
{};

TEST_P(CfgProperty, ChkMatchesIterativeDominators)
{
    auto mod = randomCfg(GetParam() * 7919 + 17);
    CfgView cfg(mod->function(0));
    DominatorTree dt(cfg);
    auto sets = iterativeDoms(cfg);
    auto ref = idomsFromSets(sets, cfg.entryNode());
    for (int v = 0; v < cfg.numNodes(); ++v) {
        if (!cfg.reachable(v) || v == cfg.entryNode())
            continue;
        EXPECT_EQ(dt.idom(v), ref[v]) << "node " << v;
    }
}

TEST_P(CfgProperty, ChkMatchesIterativePostdominators)
{
    auto mod = randomCfg(GetParam() * 104729 + 5);
    CfgView cfg(mod->function(0));
    ASSERT_TRUE(cfg.exitReachesAll());
    PostDominatorTree pdt(cfg);
    auto sets = iterativePostDoms(cfg);
    auto ref = idomsFromSets(sets, cfg.exitNode());
    for (int v = 0; v < cfg.numNodes(); ++v) {
        if (!cfg.reachable(v) || v == cfg.exitNode())
            continue;
        EXPECT_EQ(pdt.idom(v), ref[v]) << "node " << v;
    }
}

TEST_P(CfgProperty, DominanceStructuralInvariants)
{
    auto mod = randomCfg(GetParam() * 31337 + 3);
    CfgView cfg(mod->function(0));
    DominatorTree dt(cfg);
    PostDominatorTree pdt(cfg);
    auto domSets = iterativeDoms(cfg);

    for (int v = 0; v < cfg.numNodes(); ++v) {
        if (!cfg.reachable(v))
            continue;
        // The entry dominates every reachable node.
        EXPECT_TRUE(dt.dominates(cfg.entryNode(), v));
        // The exit postdominates every reachable node.
        EXPECT_TRUE(pdt.postDominates(cfg.exitNode(), v));
        // Dominance is reflexive.
        EXPECT_TRUE(dt.dominates(v, v));
        // Tree queries agree with full sets.
        for (int u = 0; u < cfg.numNodes(); ++u) {
            if (!cfg.reachable(u))
                continue;
            EXPECT_EQ(dt.dominates(u, v),
                      bool(domSets[v][u]))
                << u << " dom " << v;
        }
        // The immediate postdominator strictly postdominates v.
        if (v != cfg.exitNode() && pdt.idom(v) >= 0) {
            EXPECT_TRUE(pdt.postDominates(pdt.idom(v), v));
            EXPECT_NE(pdt.idom(v), v);
        }
    }
}

TEST_P(CfgProperty, LoopInvariants)
{
    auto mod = randomCfg(GetParam() * 271828 + 9);
    CfgView cfg(mod->function(0));
    DominatorTree dt(cfg);
    LoopForest loops(cfg, dt);

    for (const Loop &L : loops.loops()) {
        // Headers dominate all loop members.
        for (int m : L.blocks)
            EXPECT_TRUE(dt.dominates(L.header, m))
                << "header " << L.header << " member " << m;
        // Latches are members with an edge to the header.
        for (int latch : L.latches) {
            EXPECT_TRUE(L.contains(latch));
            bool edge = false;
            for (int s : cfg.succs(latch))
                edge = edge || (s == L.header);
            EXPECT_TRUE(edge);
        }
        // Parent loops strictly contain children.
        if (L.parent >= 0) {
            const Loop &P = loops.loops()[L.parent];
            EXPECT_GT(P.blocks.size(), L.blocks.size());
            for (int m : L.blocks)
                EXPECT_TRUE(P.contains(m));
            EXPECT_EQ(L.depth, P.depth + 1);
        }
        // Exit edges lead outside.
        for (auto [from, to] : L.exitEdges) {
            EXPECT_TRUE(L.contains(from));
            EXPECT_FALSE(L.contains(to));
        }
    }
    // Innermost membership is consistent.
    for (int v = 0; v < cfg.numNodes(); ++v) {
        int id = loops.innermostLoopOf(v);
        if (id >= 0) {
            EXPECT_TRUE(loops.loops()[id].contains(v));
        }
    }
}

TEST_P(CfgProperty, LivenessDataflowInvariants)
{
    auto mod = randomCfg(GetParam() * 65537 + 21);
    const Function &fn = mod->function(0);
    Liveness lv(fn, {});
    CfgView cfg(fn);
    int n = static_cast<int>(fn.numBlocks());
    for (int bIdx = 0; bIdx < n; ++bIdx) {
        // liveIn = use | (liveOut & ~def)
        EXPECT_EQ(lv.liveIn(bIdx),
                  lv.use(bIdx) |
                      (lv.liveOut(bIdx) & ~lv.def(bIdx)));
        // liveOut contains every successor's liveIn.
        for (int s : cfg.succs(bIdx)) {
            if (s < n) {
                EXPECT_EQ(lv.liveOut(bIdx) & lv.liveIn(s),
                          lv.liveIn(s));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfgProperty,
                         ::testing::Range(0, 25));

} // namespace
} // namespace polyflow
