/**
 * @file
 * A deliberately simple iterative-dataflow dominator solver used as
 * an independent oracle to cross-check the CHK implementation.
 */

#ifndef POLYFLOW_TESTS_ITERATIVE_DOM_HH
#define POLYFLOW_TESTS_ITERATIVE_DOM_HH

#include <vector>

#include "analysis/cfg_view.hh"

namespace polyflow {

/**
 * Full dominator sets by bitvector iteration to a fixed point.
 * dom[n][m] == true iff m dominates n. Unreachable nodes have empty
 * sets.
 */
std::vector<std::vector<bool>>
iterativeDominatorSets(const std::vector<int> &order,
                       const std::vector<std::vector<int>> &preds,
                       int root, int numNodes);

/** Forward dominator sets of a CFG. */
std::vector<std::vector<bool>> iterativeDoms(const CfgView &cfg);

/** Postdominator sets of a CFG (dominators of the reversed graph). */
std::vector<std::vector<bool>> iterativePostDoms(const CfgView &cfg);

/**
 * Derive immediate dominators from full sets: the unique strict
 * dominator that is dominated by every other strict dominator.
 * Returns -1 for root / uncovered nodes.
 */
std::vector<int>
idomsFromSets(const std::vector<std::vector<bool>> &sets, int root);

} // namespace polyflow

#endif // POLYFLOW_TESTS_ITERATIVE_DOM_HH
