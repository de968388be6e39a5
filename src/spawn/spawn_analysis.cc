#include "spawn/spawn_analysis.hh"

#include <algorithm>

#include "analysis/cfg_view.hh"
#include "analysis/liveness.hh"
#include "analysis/dominators.hh"
#include "analysis/loops.hh"

namespace polyflow {

const char *
spawnKindName(SpawnKind k)
{
    switch (k) {
      case SpawnKind::LoopIter: return "loop";
      case SpawnKind::LoopFT: return "loopFT";
      case SpawnKind::ProcFT: return "procFT";
      case SpawnKind::Hammock: return "hammock";
      case SpawnKind::Other: return "other";
      default: return "?";
    }
}

std::string
SpawnPoint::toString() const
{
    char buf[96];
    snprintf(buf, sizeof(buf), "%s: %#llx -> %#llx",
             spawnKindName(kind),
             (unsigned long long)triggerPc,
             (unsigned long long)targetPc);
    return buf;
}

namespace {

/**
 * True if the branch-to-join region of @p branch (nodes reachable
 * from the branch without passing through @p join, excluding the
 * branch itself) is single-entry, i.e. dominated by the branch
 * block. Such regions are the paper's "simple hammocks" — possibly
 * with loops or calls embedded, but entered only through the branch.
 */
bool
isSimpleHammock(const CfgView &cfg, const DominatorTree &dt,
                int branch, int join)
{
    std::vector<bool> seen(cfg.numNodes(), false);
    std::vector<int> work;
    for (int s : cfg.succs(branch)) {
        if (s != join && !seen[s]) {
            seen[s] = true;
            work.push_back(s);
        }
    }
    while (!work.empty()) {
        int x = work.back();
        work.pop_back();
        if (!dt.dominates(branch, x))
            return false;
        for (int s : cfg.succs(x)) {
            if (s != join && !seen[s]) {
                seen[s] = true;
                work.push_back(s);
            }
        }
    }
    return true;
}

} // namespace

SpawnAnalysis::SpawnAnalysis(const Module &mod, const LinkedProgram &)
{
    _writeSummaries = moduleWriteSummaries(mod);
    for (size_t f = 0; f < mod.numFunctions(); ++f)
        analyzeFunction(mod.function(static_cast<FuncId>(f)));
    for (const SpawnPoint &p : _points)
        ++_census.byKind[static_cast<int>(p.kind)];
}

SpawnAnalysis::SpawnAnalysis(std::vector<SpawnPoint> points)
    : _points(std::move(points))
{
    for (const SpawnPoint &p : _points)
        ++_census.byKind[static_cast<int>(p.kind)];
}

namespace {

/**
 * Union of defs over the blocks reachable from @p from without
 * passing through @p target (the spawning task's region).
 */
RegMask
regionDefs(const CfgView &cfg, const Liveness &lv, int from,
           int target)
{
    RegMask defs = 0;
    std::vector<bool> seen(cfg.numNodes(), false);
    std::vector<int> work{from};
    seen[from] = true;
    int nblocks = static_cast<int>(cfg.fn().numBlocks());
    while (!work.empty()) {
        int x = work.back();
        work.pop_back();
        if (x < nblocks)
            defs |= lv.def(BlockId(x));
        for (int s : cfg.succs(x)) {
            if (s != target && !seen[s]) {
                seen[s] = true;
                work.push_back(s);
            }
        }
    }
    return defs;
}

} // namespace

void
SpawnAnalysis::analyzeFunction(const Function &fn)
{
    CfgView cfg(fn);
    DominatorTree dt(cfg);
    PostDominatorTree pdt(cfg);
    LoopForest loops(cfg, dt);
    Liveness lv(fn, _writeSummaries);

    int nblocks = static_cast<int>(fn.numBlocks());
    for (int b = 0; b < nblocks; ++b) {
        if (!cfg.reachable(b))
            continue;
        const BasicBlock &bb = fn.block(b);

        // Procedure fall-throughs: at every call instruction,
        // anywhere in the block.
        Addr iaddr = bb.startAddr();
        for (const Instruction &in : bb.instrs()) {
            if (in.isCall()) {
                SpawnPoint p;
                p.triggerPc = iaddr;
                p.targetPc = iaddr + instrBytes;
                p.kind = SpawnKind::ProcFT;
                p.func = fn.id();
                // The spawned continuation may depend on anything
                // the callee writes.
                p.depMask = (in.isDirectCall() &&
                             in.targetFunc != invalidFunc)
                    ? _writeSummaries[in.targetFunc] |
                        (RegMask(1) << reg::ra)
                    : ~RegMask(1);
                _points.push_back(p);
            }
            iaddr += instrBytes;
        }

        if (!bb.hasTerminator())
            continue;
        const Instruction &term = bb.terminator();
        bool condBranch = term.isCondBranch();
        bool indirect = term.isIndirectJump();
        if (!condBranch && !indirect)
            continue;

        BlockId join = pdt.ipdomBlock(b);
        if (join == invalidBlock)
            continue;  // postdominated only by the virtual exit

        SpawnPoint p;
        p.triggerPc = bb.termAddr();
        p.targetPc = fn.block(join).startAddr();
        p.func = fn.id();

        if (indirect) {
            p.kind = SpawnKind::Other;
        } else {
            int loop = loops.innermostLoopOf(b);
            bool leavesLoop = false;
            if (loop >= 0) {
                for (int s : cfg.succs(b)) {
                    if (!loops.loopContains(loop, s))
                        leavesLoop = true;
                }
                // A latch back-branch is a loop branch even when its
                // other edge stays inside.
                for (int s : cfg.succs(b)) {
                    if (loops.isBackEdge(b, s))
                        leavesLoop = true;
                }
            }
            if (leavesLoop) {
                p.kind = SpawnKind::LoopFT;
            } else if (isSimpleHammock(cfg, dt, b, join)) {
                p.kind = SpawnKind::Hammock;
            } else {
                p.kind = SpawnKind::Other;
            }
        }
        p.depMask =
            regionDefs(cfg, lv, b, join) & lv.liveIn(join);
        _points.push_back(p);
    }

    // Loop-iteration spawns: header start -> latch block start,
    // keeping the induction update local to the spawned task
    // (Section 2.3).
    for (const Loop &L : loops.loops()) {
        if (L.header >= nblocks || L.latches.empty())
            continue;
        int latch = L.latches.back();
        if (latch >= nblocks)
            continue;
        SpawnPoint p;
        p.triggerPc = fn.block(L.header).startAddr();
        p.targetPc = fn.block(latch).startAddr();
        p.kind = SpawnKind::LoopIter;
        p.func = fn.id();
        p.depMask =
            regionDefs(cfg, lv, L.header, latch) & lv.liveIn(latch);
        _points.push_back(p);
    }
}

} // namespace polyflow
