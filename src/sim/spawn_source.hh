/**
 * @file
 * Spawn sources: where the Task Spawn Unit gets its spawn targets.
 * Static sources are hint tables produced by compiler analysis. Of
 * the two dynamic sources, rec_pred wraps the reconvergence predictor
 * (Section 2.4) and DMT spawns at backward-branch and call
 * fall-throughs (Section 5).
 */

#ifndef POLYFLOW_SIM_SPAWN_SOURCE_HH
#define POLYFLOW_SIM_SPAWN_SOURCE_HH

#include <memory>
#include <optional>

#include "ir/module.hh"
#include "recon/recon_predictor.hh"
#include "spawn/policy.hh"
#include "spawn/spawn_point.hh"

namespace polyflow {

/** A candidate spawn returned by a source at fetch time. */
struct SpawnHint
{
    Addr targetPc;  //!< a block start or a call's return address
    SpawnKind kind;
    /** Compiler dependence mask (0 for dynamic sources). */
    std::uint32_t depMask = 0;
};

/**
 * Interface the Task Spawn Unit queries at fetch and trains at
 * commit.
 *
 * A machine decodes its source once per static instruction when it
 * starts: where fixedAt() holds it calls query() then and keeps the
 * answer, and at fetch it calls query() only for the rest. It calls
 * onCommit() only on a source whose trains() holds.
 */
class SpawnSource
{
  public:
    virtual ~SpawnSource() = default;

    /** Spawn hint for fetching @p li, if any. */
    virtual std::optional<SpawnHint> query(const LinkedInstr &li) = 0;

    /** True if query(@p li) gives the same answer at every fetch of
     *  @p li, whatever the source has observed. */
    virtual bool fixedAt(const LinkedInstr &) const { return false; }

    /** False if onCommit() never changes what query() answers, so a
     *  machine need not call it. */
    virtual bool trains() const { return true; }

    /** Observe one committed instruction (dynamic sources train). */
    virtual void onCommit(const LinkedInstr &, bool) {}
};

/**
 * Static source: compiler-generated hint table, no training. Query
 * is read-only, so one shared table serves any number of concurrent
 * simulations.
 */
class StaticSpawnSource : public SpawnSource
{
  public:
    /** Owns @p table. */
    explicit StaticSpawnSource(HintTable table)
        : _table(std::make_shared<const HintTable>(std::move(table)))
    {}

    /** Shares @p table (e.g. a SweepCache's). */
    explicit StaticSpawnSource(std::shared_ptr<const HintTable> table)
        : _table(std::move(table))
    {}

    std::optional<SpawnHint> query(const LinkedInstr &li) override;
    bool fixedAt(const LinkedInstr &) const override { return true; }
    bool trains() const override { return false; }

  private:
    std::shared_ptr<const HintTable> _table;
};

/**
 * Dynamic source: reconvergence-predictor spawns at conditional
 * branches plus procedure fall-through spawns at calls (the rec_pred
 * configuration of Section 4.4). Trains on the retirement stream,
 * so warm-up effects are modelled.
 */
class ReconSpawnSource : public SpawnSource
{
  public:
    std::optional<SpawnHint> query(const LinkedInstr &li) override;
    /** Calls always spawn their fall-through; only a conditional
     *  branch's hint depends on what the predictor has learnt. */
    bool fixedAt(const LinkedInstr &li) const override;
    void onCommit(const LinkedInstr &li, bool taken) override;

    const ReconPredictor &predictor() const { return _predictor; }

  private:
    ReconPredictor _predictor;
};

/**
 * DMT-style dynamic heuristics (Akkary & Driscoll, MICRO-31; the
 * paper's Section 5): spawn at the static address directly
 * following each backward branch (an approximate loop
 * fall-through) and at procedure fall-throughs after calls. No
 * compiler information, no reconvergence prediction — the baseline
 * the paper's dynamic mechanism improves on.
 */
class DmtSpawnSource : public SpawnSource
{
  public:
    std::optional<SpawnHint> query(const LinkedInstr &li) override;
    bool fixedAt(const LinkedInstr &) const override { return true; }
    bool trains() const override { return false; }
};

} // namespace polyflow

#endif // POLYFLOW_SIM_SPAWN_SOURCE_HH
