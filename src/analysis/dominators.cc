#include "analysis/dominators.hh"

#include <stdexcept>

namespace polyflow {

std::vector<int>
computeIdoms(const std::vector<int> &rpo,
             const std::vector<std::vector<int>> &preds, int root,
             int numNodes)
{
    std::vector<int> idom(numNodes, -1);
    std::vector<int> rpoNum(numNodes, -1);
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
            for (int p : preds[n]) {
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
    auto preds = [&] {
        std::vector<std::vector<int>> p(cfg.numNodes());
        for (int n = 0; n < cfg.numNodes(); ++n)
            p[n] = cfg.preds(n);
        return p;
    }();
    build(computeIdoms(cfg.rpo(), preds, cfg.entryNode(),
                       cfg.numNodes()),
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
    auto succs = [&] {
        std::vector<std::vector<int>> s(cfg.numNodes());
        for (int n = 0; n < cfg.numNodes(); ++n)
            s[n] = cfg.succs(n);
        return s;
    }();
    build(computeIdoms(cfg.reverseRpo(), succs, cfg.exitNode(),
                       cfg.numNodes()),
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
