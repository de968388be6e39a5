/**
 * @file
 * Dominator and postdominator trees over a CfgView, computed with
 * the Cooper–Harvey–Kennedy algorithm.
 */

#ifndef POLYFLOW_ANALYSIS_DOMINATORS_HH
#define POLYFLOW_ANALYSIS_DOMINATORS_HH

#include <vector>

#include "analysis/cfg_view.hh"

namespace polyflow {

/**
 * A dominator (or postdominator) tree over the nodes of a CfgView,
 * with O(1) dominance queries via DFS intervals.
 */
class DomTreeBase
{
  public:
    /** Immediate dominator of @p n (root maps to itself; -1 if the
     *  node is not covered by the analysis). */
    int idom(int n) const { return _idom[n]; }
    bool covered(int n) const { return _idom[n] >= 0; }

    /** True if @p a dominates @p b (reflexive). */
    bool dominates(int a, int b) const
    {
        if (!covered(a) || !covered(b))
            return false;
        return _dfsIn[a] <= _dfsIn[b] && _dfsOut[b] <= _dfsOut[a];
    }

  protected:
    void build(std::vector<int> idoms, int root);

    std::vector<int> _idom;
    std::vector<int> _dfsIn, _dfsOut;
};

/** Forward dominator tree of a function's CFG. */
class DominatorTree : public DomTreeBase
{
  public:
    explicit DominatorTree(const CfgView &cfg);
};

/**
 * Postdominator tree. The root is the virtual exit node; the
 * immediate postdominator of a basic block may be the virtual exit
 * (ipdomBlock() then reports invalidBlock).
 */
class PostDominatorTree : public DomTreeBase
{
  public:
    explicit PostDominatorTree(const CfgView &cfg);

    /**
     * Immediate postdominator of block @p b as a BlockId;
     * invalidBlock when it is the virtual exit or uncovered.
     */
    BlockId ipdomBlock(BlockId b) const;

    bool postDominates(int a, int b) const { return dominates(a, b); }

  private:
    const CfgView *_cfg;
};

} // namespace polyflow

#endif // POLYFLOW_ANALYSIS_DOMINATORS_HH
