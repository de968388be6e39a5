#include "analysis/control_dep.hh"

#include <algorithm>

namespace polyflow {

ControlDepGraph::ControlDepGraph(const CfgView &cfg,
                                 const PostDominatorTree &pdt)
{
    int n = cfg.numNodes();
    _controllers.assign(n, {});

    // FOW: for each edge (a, b) where b does not postdominate a,
    // every node on the postdominator-tree path from b up to (but
    // excluding) ipdom(a) is control dependent on a. A self edge
    // (a, a) is processed too: by the definition, a node with a
    // self loop controls its own re-execution.
    for (int a = 0; a < n; ++a) {
        if (!cfg.reachable(a))
            continue;
        for (int b : cfg.succs(a)) {
            if (b != a && pdt.postDominates(b, a))
                continue;
            int stop = pdt.idom(a);
            for (int w = b; w != stop && w >= 0; w = pdt.idom(w)) {
                _controllers[w].push_back(a);
                if (w == pdt.idom(w))
                    break;  // defensive: reached the tree root
            }
        }
    }

    for (auto &v : _controllers) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }
}

bool
ControlDepGraph::dependsOn(int node, int branch) const
{
    const auto &c = _controllers[node];
    return std::binary_search(c.begin(), c.end(), branch);
}

} // namespace polyflow
