#include "analysis/loops.hh"

#include <algorithm>
#include <map>

namespace polyflow {

bool
Loop::contains(int node) const
{
    return std::binary_search(blocks.begin(), blocks.end(), node);
}

LoopForest::LoopForest(const CfgView &cfg, const DominatorTree &dt)
{
    int n = cfg.numNodes();
    _innermost.assign(n, -1);

    // 1. Find back edges: (u, h) where h dominates u. A retreating
    //    edge to a non-dominator (irreducible flow) is no back edge.
    for (int u = 0; u < n; ++u) {
        if (!cfg.reachable(u))
            continue;
        for (int h : cfg.succs(u)) {
            if (dt.dominates(h, u))
                _backEdges.emplace_back(u, h);
        }
    }

    // 2. Merge back edges by header; collect natural loop bodies by
    //    backward walk from each latch, stopping at the header.
    std::map<int, Loop> byHeader;
    for (auto [u, h] : _backEdges) {
        Loop &L = byHeader[h];
        L.header = h;
        L.latches.push_back(u);
        std::vector<bool> inBody(n, false);
        inBody[h] = true;
        std::vector<int> work;
        if (!inBody[u]) {
            inBody[u] = true;
            work.push_back(u);
        }
        while (!work.empty()) {
            int x = work.back();
            work.pop_back();
            for (int p : cfg.preds(x)) {
                if (!inBody[p] && cfg.reachable(p)) {
                    inBody[p] = true;
                    work.push_back(p);
                }
            }
        }
        for (int b = 0; b < n; ++b) {
            if (inBody[b])
                L.blocks.push_back(b);
        }
    }

    for (auto &[h, L] : byHeader) {
        std::sort(L.blocks.begin(), L.blocks.end());
        L.blocks.erase(std::unique(L.blocks.begin(), L.blocks.end()),
                       L.blocks.end());
        std::sort(L.latches.begin(), L.latches.end());
        L.latches.erase(
            std::unique(L.latches.begin(), L.latches.end()),
            L.latches.end());
        L.id = static_cast<int>(_loops.size());
        _loops.push_back(std::move(L));
    }

    // 3. Nesting: loop A is a child of the smallest loop B != A whose
    //    body strictly contains A's body.
    for (Loop &a : _loops) {
        int best = -1;
        size_t bestSize = 0;
        for (const Loop &b : _loops) {
            if (a.id == b.id || b.blocks.size() <= a.blocks.size())
                continue;
            if (b.contains(a.header) &&
                std::includes(b.blocks.begin(), b.blocks.end(),
                              a.blocks.begin(), a.blocks.end())) {
                if (best < 0 || b.blocks.size() < bestSize) {
                    best = b.id;
                    bestSize = b.blocks.size();
                }
            }
        }
        a.parent = best;
    }
    for (Loop &a : _loops) {
        int d = 1;
        for (int p = a.parent; p >= 0; p = _loops[p].parent)
            ++d;
        a.depth = d;
    }

    // 4. Innermost membership per node (deepest loop containing it).
    for (const Loop &L : _loops) {
        for (int b : L.blocks) {
            int cur = _innermost[b];
            if (cur < 0 || _loops[cur].depth < L.depth)
                _innermost[b] = L.id;
        }
    }

    // 5. Exit edges.
    for (Loop &L : _loops) {
        for (int b : L.blocks) {
            for (int s : cfg.succs(b)) {
                if (!L.contains(s))
                    L.exitEdges.emplace_back(b, s);
            }
        }
    }
}

bool
LoopForest::isBackEdge(int u, int v) const
{
    for (auto [a, b] : _backEdges) {
        if (a == u && b == v)
            return true;
    }
    return false;
}

bool
LoopForest::loopContains(int loopId, int node) const
{
    return _loops.at(loopId).contains(node);
}

} // namespace polyflow
