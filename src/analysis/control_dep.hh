/**
 * @file
 * Control dependence graph (Ferrante–Ottenstein–Warren construction
 * from the postdominator tree).
 */

#ifndef POLYFLOW_ANALYSIS_CONTROL_DEP_HH
#define POLYFLOW_ANALYSIS_CONTROL_DEP_HH

#include <vector>

#include "analysis/cfg_view.hh"
#include "analysis/dominators.hh"

namespace polyflow {

/**
 * Control dependence over the nodes of a CfgView. Node Y is control
 * dependent on node X iff X has a successor edge from which Y's
 * execution is guaranteed, while some other path from X reaches the
 * exit without executing Y.
 */
class ControlDepGraph
{
  public:
    ControlDepGraph(const CfgView &cfg, const PostDominatorTree &pdt);

    bool dependsOn(int node, int branch) const;

    int numNodes() const { return static_cast<int>(_controllers.size()); }

  private:
    std::vector<std::vector<int>> _controllers;
};

} // namespace polyflow

#endif // POLYFLOW_ANALYSIS_CONTROL_DEP_HH
