#include "iterative_dom.hh"

namespace polyflow {

std::vector<std::vector<bool>>
iterativeDominatorSets(const std::vector<int> &order,
                       const std::vector<std::vector<int>> &preds,
                       int root, int numNodes)
{
    std::vector<bool> in_order(numNodes, false);
    for (int n : order)
        in_order[n] = true;

    // Initialize: root = {root}; others = universe (of ordered nodes).
    std::vector<std::vector<bool>> dom(
        numNodes, std::vector<bool>(numNodes, false));
    for (int n : order) {
        if (n == root) {
            dom[n][n] = true;
        } else {
            for (int m : order)
                dom[n][m] = true;
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (int n : order) {
            if (n == root)
                continue;
            std::vector<bool> next(numNodes, true);
            bool any_pred = false;
            for (int p : preds[n]) {
                if (!in_order[p])
                    continue;
                any_pred = true;
                for (int m = 0; m < numNodes; ++m)
                    next[m] = next[m] && dom[p][m];
            }
            if (!any_pred)
                next.assign(numNodes, false);
            next[n] = true;
            if (next != dom[n]) {
                dom[n] = std::move(next);
                changed = true;
            }
        }
    }

    for (int n = 0; n < numNodes; ++n) {
        if (!in_order[n])
            dom[n].assign(numNodes, false);
    }
    return dom;
}

std::vector<std::vector<bool>>
iterativeDoms(const CfgView &cfg)
{
    std::vector<std::vector<int>> preds(cfg.numNodes());
    for (int n = 0; n < cfg.numNodes(); ++n)
        preds[n] = cfg.preds(n);
    return iterativeDominatorSets(cfg.rpo(), preds, cfg.entryNode(),
                                  cfg.numNodes());
}

std::vector<std::vector<bool>>
iterativePostDoms(const CfgView &cfg)
{
    std::vector<std::vector<int>> succs(cfg.numNodes());
    for (int n = 0; n < cfg.numNodes(); ++n)
        succs[n] = cfg.succs(n);
    return iterativeDominatorSets(cfg.reverseRpo(), succs,
                                  cfg.exitNode(), cfg.numNodes());
}

std::vector<int>
idomsFromSets(const std::vector<std::vector<bool>> &sets, int root)
{
    int n = static_cast<int>(sets.size());
    std::vector<int> idom(n, -1);
    for (int b = 0; b < n; ++b) {
        if (b == root || !sets[b][b])
            continue;
        // Candidates: strict dominators of b. The immediate one is
        // the candidate dominated by all other candidates.
        int best = -1;
        for (int c = 0; c < n; ++c) {
            if (c == b || !sets[b][c])
                continue;
            bool immediate = true;
            for (int d = 0; d < n; ++d) {
                if (d == b || d == c || !sets[b][d])
                    continue;
                // d must dominate c for c to be immediate.
                if (!sets[c][d])
                    immediate = false;
            }
            if (immediate) {
                best = c;
                break;
            }
        }
        idom[b] = best;
    }
    if (root >= 0 && root < n)
        idom[root] = root;
    return idom;
}

} // namespace polyflow
