/**
 * @file
 * Natural-loop detection and the loop nesting forest.
 */

#ifndef POLYFLOW_ANALYSIS_LOOPS_HH
#define POLYFLOW_ANALYSIS_LOOPS_HH

#include <vector>

#include "analysis/cfg_view.hh"
#include "analysis/dominators.hh"

namespace polyflow {

/** One natural loop (merged over all back edges into its header). */
struct Loop
{
    int id = -1;
    int header = -1;
    /** Sources of back edges into the header. */
    std::vector<int> latches;
    /** All member nodes including the header, sorted. */
    std::vector<int> blocks;
    /** Edges (from, to) leaving the loop. */
    std::vector<std::pair<int, int>> exitEdges;
    /** Enclosing loop id, or -1 for top-level loops. */
    int parent = -1;
    /** Nesting depth (outermost = 1). */
    int depth = 1;

    bool contains(int node) const;
};

/**
 * All natural loops of a function, built from dominator-identified
 * back edges. Irreducible flow (a back-ish edge whose target does
 * not dominate its source) is ignored.
 */
class LoopForest
{
  public:
    LoopForest(const CfgView &cfg, const DominatorTree &dt);

    const std::vector<Loop> &loops() const { return _loops; }

    /** Innermost loop containing @p node, or -1. */
    int innermostLoopOf(int node) const { return _innermost[node]; }

    /** True if edge (u, v) is a back edge of some natural loop. */
    bool isBackEdge(int u, int v) const;

    /**
     * True if @p node is inside loop @p loopId (including nested
     * loops' nodes).
     */
    bool loopContains(int loopId, int node) const;

  private:
    std::vector<Loop> _loops;
    std::vector<int> _innermost;
    std::vector<std::pair<int, int>> _backEdges;
};

} // namespace polyflow

#endif // POLYFLOW_ANALYSIS_LOOPS_HH
