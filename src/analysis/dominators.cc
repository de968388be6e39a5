#include "analysis/dominators.hh"

#include <stdexcept>

namespace polyflow {

namespace {

/**
 * Immediate dominators by the Cooper–Harvey–Kennedy "engineered"
 * algorithm, over @p cfg's edges in the direction @p edgesInto reads
 * them: CfgView::preds for dominators, CfgView::succs (the reversed
 * graph's predecessors) for postdominators.
 *
 * @param rpo reverse postorder of the nodes reachable from @p root
 *            in that direction
 * @return idom per node; idom[root] == root; -1 for unreachable nodes
 */
std::vector<int>
computeIdoms(const CfgView &cfg, const std::vector<int> &rpo, int root,
             const std::vector<int> &(CfgView::*edgesInto)(int) const)
{
    std::vector<int> idom(cfg.numNodes(), -1);
    std::vector<int> rpoNum(cfg.numNodes(), -1);
    for (size_t i = 0; i < rpo.size(); ++i)
        rpoNum[rpo[i]] = static_cast<int>(i);

    idom[root] = root;

    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpoNum[a] > rpoNum[b])
                a = idom[a];
            while (rpoNum[b] > rpoNum[a])
                b = idom[b];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int n : rpo) {
            if (n == root)
                continue;
            int newIdom = -1;
            for (int p : (cfg.*edgesInto)(n)) {
                if (rpoNum[p] < 0 || idom[p] < 0)
                    continue;  // unreachable or unprocessed
                newIdom = (newIdom < 0) ? p : intersect(p, newIdom);
            }
            if (newIdom >= 0 && idom[n] != newIdom) {
                idom[n] = newIdom;
                changed = true;
            }
        }
    }
    return idom;
}

} // namespace

void
DomTreeBase::build(std::vector<int> idoms, int root)
{
    _idom = std::move(idoms);
    int n = static_cast<int>(_idom.size());
    std::vector<std::vector<int>> children(n);
    for (int i = 0; i < n; ++i) {
        if (i != root && _idom[i] >= 0)
            children[_idom[i]].push_back(i);
    }

    _dfsIn.assign(n, -1);
    _dfsOut.assign(n, -1);
    int clock = 0;
    std::vector<std::pair<int, size_t>> stack;
    stack.emplace_back(root, 0);
    _dfsIn[root] = clock++;
    while (!stack.empty()) {
        auto &[node, ci] = stack.back();
        if (ci < children[node].size()) {
            int c = children[node][ci++];
            _dfsIn[c] = clock++;
            stack.emplace_back(c, 0);
        } else {
            _dfsOut[node] = clock++;
            stack.pop_back();
        }
    }
}

DominatorTree::DominatorTree(const CfgView &cfg)
{
    build(computeIdoms(cfg, cfg.rpo(), cfg.entryNode(), &CfgView::preds),
          cfg.entryNode());
}

PostDominatorTree::PostDominatorTree(const CfgView &cfg) : _cfg(&cfg)
{
    if (!cfg.exitReachesAll()) {
        throw std::runtime_error(
            "function " + cfg.fn().name() +
            ": some reachable block cannot reach the exit; "
            "postdominators are undefined (infinite loop?)");
    }
    // Postdominators are dominators of the reversed graph: preds of
    // the reversed graph are the forward successors.
    build(computeIdoms(cfg, cfg.reverseRpo(), cfg.exitNode(),
                       &CfgView::succs),
          cfg.exitNode());
}

BlockId
PostDominatorTree::ipdomBlock(BlockId b) const
{
    int ip = idom(b);
    if (ip < 0 || _cfg->isExit(ip))
        return invalidBlock;
    return ip;
}

} // namespace polyflow
