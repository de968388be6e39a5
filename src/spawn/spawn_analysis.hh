/**
 * @file
 * Static spawn-point identification: the compiler-side analysis that
 * maps every branch's immediate postdominator (and every call and
 * loop) to a classified spawn opportunity.
 */

#ifndef POLYFLOW_SPAWN_SPAWN_ANALYSIS_HH
#define POLYFLOW_SPAWN_SPAWN_ANALYSIS_HH

#include <array>
#include <vector>

#include "analysis/liveness.hh"
#include "ir/module.hh"
#include "spawn/spawn_point.hh"

namespace polyflow {

/** Static spawn counts by kind (Figure 5 rows). */
struct SpawnCensus
{
    std::array<int, numSpawnKinds> byKind{};

    int
    postdomTotal() const
    {
        return byKind[int(SpawnKind::LoopFT)] +
            byKind[int(SpawnKind::ProcFT)] +
            byKind[int(SpawnKind::Hammock)] +
            byKind[int(SpawnKind::Other)];
    }
};

/**
 * Whole-module spawn analysis. For each function it computes the
 * postdominator tree and loop forest, then emits:
 *
 *  - a LoopFT spawn at every conditional branch that can leave its
 *    innermost loop (back branches and breaks), targeting the
 *    branch block's immediate postdominator;
 *  - a Hammock spawn at every other conditional branch whose
 *    branch-to-join region is single-entry (dominated by the branch
 *    block), targeting the immediate postdominator;
 *  - an Other spawn at remaining conditional branches and at
 *    indirect jumps with a real immediate postdominator;
 *  - a ProcFT spawn at every call instruction, targeting the return
 *    address;
 *  - a LoopIter spawn from every loop header to its latch block
 *    (the Section 2.3 formulation that keeps the induction update
 *    local to the spawned task).
 *
 * Immediate postdominators that are the virtual exit yield no spawn.
 */
class SpawnAnalysis
{
  public:
    /** Analyse every function of @p mod, which @p prog must be the
     *  link of: the spawn addresses are the block addresses that
     *  Module::link() stored in @p mod's blocks. */
    SpawnAnalysis(const Module &mod, const LinkedProgram &prog);

    /**
     * Rehydrate an analysis from previously computed spawn points
     * (the artifact store's deserialization path), in the original
     * analysis order, which the store's round trip keeps. HintTable
     * construction does not depend on it: the only trigger
     * collision it resolves, a postdominator point against a
     * LoopIter point, goes the same way in either order. The census
     * is recomputed from the points.
     */
    explicit SpawnAnalysis(std::vector<SpawnPoint> points);

    const std::vector<SpawnPoint> &points() const { return _points; }

    const SpawnCensus &census() const { return _census; }

  private:
    void analyzeFunction(const Function &fn);

    std::vector<SpawnPoint> _points;
    SpawnCensus _census;
    std::vector<RegMask> _writeSummaries;
};

} // namespace polyflow

#endif // POLYFLOW_SPAWN_SPAWN_ANALYSIS_HH
