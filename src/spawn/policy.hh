/**
 * @file
 * Spawn policies: named selections of spawn kinds (the paper's
 * individual heuristics, combinations, the full postdominator set,
 * and category-exclusion sets), plus the hint table that the Task
 * Spawn Unit consults at fetch.
 */

#ifndef POLYFLOW_SPAWN_POLICY_HH
#define POLYFLOW_SPAWN_POLICY_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "spawn/spawn_analysis.hh"
#include "spawn/spawn_point.hh"

namespace polyflow {

/** A named static spawn policy (a set of enabled spawn kinds). */
struct SpawnPolicy
{
    std::string name;
    unsigned kindMask = 0;

    bool operator==(const SpawnPolicy &) const = default;

    /** @name The paper's policy lineup @{ */
    static SpawnPolicy none();
    static SpawnPolicy loop();
    static SpawnPolicy loopFT();
    static SpawnPolicy procFT();
    static SpawnPolicy hammock();
    static SpawnPolicy other();
    static SpawnPolicy postdoms();
    /** Figure 10 combinations. */
    static SpawnPolicy loopPlusLoopFT();
    static SpawnPolicy loopFTPlusProcFT();
    static SpawnPolicy loopProcFTLoopFT();
    /** Figure 11 exclusions: postdoms minus one category. */
    static SpawnPolicy postdomsMinus(SpawnKind k);
    /** @} */
};

/**
 * The spawn hint table (the paper's "hint cache", modelled without
 * conflict or capacity misses, as in the paper). Maps a trigger PC
 * to at most one spawn point. When a PC carries several candidate
 * spawns under a policy, the postdominator spawn wins over the
 * loop-iteration heuristic, matching the idea that a branch's own
 * ipdom is the canonical control-equivalent target.
 */
class HintTable
{
  public:
    HintTable() = default;
    HintTable(const SpawnAnalysis &analysis, const SpawnPolicy &policy);

    /**
     * Rehydrate a table from its own points() output (the artifact
     * store's deserialization path). The points are installed
     * verbatim — policy filtering and trigger-collision resolution
     * already happened when the table was first built; duplicate
     * triggers keep the last occurrence.
     */
    explicit HintTable(const std::vector<SpawnPoint> &points);

    /** The spawn point triggered by @p pc, or nullptr. */
    const SpawnPoint *lookup(Addr pc) const;

    /**
     * The table's entries sorted by trigger PC — a deterministic
     * flattening of the unordered map, so serialized hint artifacts
     * are byte-stable across runs.
     */
    std::vector<SpawnPoint> points() const;

    size_t size() const { return _byTrigger.size(); }

  private:
    std::unordered_map<Addr, SpawnPoint> _byTrigger;
};

} // namespace polyflow

#endif // POLYFLOW_SPAWN_POLICY_HH
