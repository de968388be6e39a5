/**
 * @file
 * MachineState: the explicit, documented microarchitectural state of
 * the PolyFlow machine (Figure 7), shared by every pipeline stage.
 *
 * The stages are plain functions over this one struct (stages.hh),
 * so each stage can be driven — and tested — in isolation on a
 * hand-built state (tests/test_stages.cc).
 *
 * Ownership rules:
 *  - MachineState owns every piece of per-run mutable state: the
 *    per-instruction pipeline positions, the task table, scheduler
 *    and divert-queue occupancy, fetch's reusable eligible-task
 *    buffer, predictors, caches, spawn feedback and the accumulating
 *    TimingResult.
 *  - The committed trace, the spawn source and the shared TraceIndex
 *    are borrowed read-only (the sweep engine shares them across
 *    concurrent simulations).
 *
 * Methods on MachineState are *queries* used by more than one stage
 * (task lookup, synchronization predicates, resource admission);
 * anything that advances the pipeline is a stage function.
 */

#ifndef POLYFLOW_SIM_MACHINE_STATE_HH
#define POLYFLOW_SIM_MACHINE_STATE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "isa/trace.hh"
#include "sim/branch_pred.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/dep_predictors.hh"
#include "sim/result.hh"
#include "sim/spawn_source.hh"
#include "sim/trace_index.hh"

namespace polyflow::sim {

/** Pipeline position of one dynamic (trace) instruction. */
enum class InstrStage : std::uint8_t {
    None = 0,
    Fetched = 1,
    Diverted = 2,
    InSched = 3,
    Issued = 4,
    Committed = 5,
};

/** Per-instruction pipeline bookkeeping, indexed by trace position.
 *  Cycles are 32-bit: the MachineState constructor rejects a trace
 *  whose cycle limit (plus the longest latency) does not fit. */
struct InstrState
{
    InstrStage stage = InstrStage::None;
    std::uint32_t fetchCycle = 0;
    std::uint32_t completeCycle = 0;
};
static_assert(sizeof(InstrState) == 12);

/** Why a task's fetch last stalled; refines the cycle-accounting
 *  blame while the stall (and the frontend refill behind it)
 *  drains. */
enum class FetchStall : std::uint8_t {
    None,          //!< no stall recorded yet (cold start)
    Mispredict,    //!< branch mispredict redirect
    ICache,        //!< instruction-cache miss
    Squash,        //!< restart after a violation squash
    SpawnStartup,  //!< context-allocation delay of a new task
};

/**
 * One task context. Tasks carve disjoint, contiguous ranges
 * [begin, end) out of the committed trace and stay sorted by begin
 * in MachineState::tasks (spawns only split a task's own tail).
 */
struct Task
{
    TraceIdx begin = 0, end = 0;
    TraceIdx fetchIdx = 0, dispIdx = 0;
    std::uint64_t fetchReady = 0;
    FetchStall lastFetchStall = FetchStall::None;
    TraceIdx blockedOnBranch = invalidTrace;
    std::uint32_t ghr = 0;
    ReturnAddressStack ras;
    Addr curFetchLine = invalidAddr;
    int robHeld = 0;
    Addr triggerPc = invalidAddr;  //!< spawn PC that created us
    /** Static (image) index of the trigger; valid iff triggerPc is.
     *  Keys the flat spawn-feedback table. */
    ImageIdx triggerImg = 0;
    std::uint32_t divertedCount = 0;
    /** Compiler hint: spawner-written live-in registers. */
    std::uint32_t depMask = 0;
};

/** A dependence violation detected at issue, squashed end-of-cycle. */
struct Violation
{
    TraceIdx consumer;
    /** Conflicting store for memory violations; invalidTrace for
     *  stale register reads. */
    TraceIdx store;
};

/** What a held queue entry waits for its blocking producer to do. */
enum class Await : std::uint8_t {
    Nothing,  //!< not held
    Rename,   //!< leave the fetch and divert queues (reach InSched)
    Issue,    //!< issue
    Result,   //!< have its result ready (doneAt)
};

/** The producer that held a queue entry, and what the entry waits
 *  for it to do. False when nothing holds the entry. */
struct Blocker
{
    TraceIdx producer = invalidTrace;
    Await until = Await::Nothing;

    explicit operator bool() const { return until != Await::Nothing; }
    bool operator==(const Blocker &) const = default;
};

/** One divert-queue entry. */
struct DivertEntry
{
    TraceIdx idx;
    /** The producer that held the entry when the divert rule
     *  (MachineState::divertBlocker) last ran on it; cleared once
     *  the rule lets it go. */
    Blocker heldBy{};
    /** Cycle the entry may re-enter rename; set when the rule first
     *  lets it go, meaningful only while heldBy is clear. */
    std::uint64_t readyAt = 0;
};

/** One scheduler entry. */
struct SchedEntry
{
    TraceIdx idx;  //!< age key
    /** The synchronized register producer or store whose result
     *  kept the entry from issuing when issue last ran the full
     *  readiness rule; invalidTrace if none. */
    TraceIdx waitOn = invalidTrace;
};

/** A spawn decided mid-fetch, applied at end of cycle so task
 *  positions stay stable while the frontend iterates. */
struct PendingSpawn
{
    bool valid = false;
    /** Position of the spawning task in MachineState::tasks. */
    size_t parentPos = 0;
    TraceIdx start = 0;
    TraceIdx end = 0;
    SpawnHint hint{};
    Addr triggerPc = invalidAddr;
    ImageIdx triggerImg = 0;
    std::uint32_t ghr = 0;
    ReturnAddressStack ras;
};

/**
 * Spawn-profitability feedback per trigger (paper: "dynamic feedback
 * about which tasks are profitable"), kept in a flat table indexed
 * by the trigger's image index — the commit and recovery stages
 * update it on every retire/squash, so it must not hash.
 */
struct TriggerFeedback
{
    int spawns = 0;
    int squashes = 0;
    int unprofitable = 0;
    int profitable = 0;
    bool disabled = false;
};

struct MachineState
{
    /**
     * @param config machine parameters
     * @param trace committed dynamic trace from the functional sim
     * @param source spawn source, or nullptr for the superscalar
     *               baseline (no spawning)
     * @param sharedIndex precomputed indexes over @p trace, shared
     *               read-only across simulations; nullptr builds
     *               private ones when spawning is enabled
     * @throws std::invalid_argument on a bad @p config
     *         (MachineConfig::validate)
     * @throws std::runtime_error on an empty trace, or one too long
     *         for 32-bit cycles (cycleLimitFor)
     */
    MachineState(const MachineConfig &config, const Trace &trace,
                 SpawnSource *source,
                 const TraceIndex *sharedIndex = nullptr);

    /**
     * The cycle at which a run over @p instrs instructions counts as
     * hung: 200 per instruction plus one million.
     * @throws std::runtime_error naming the trace size if that
     *         cycle, plus the longest latency @p cfg can add to it,
     *         does not fit InstrState's 32-bit cycles
     */
    static std::uint64_t cycleLimitFor(const MachineConfig &cfg,
                                       std::size_t instrs);

    /** @name Configuration and borrowed inputs @{ */
    MachineConfig cfg;
    const Trace *trace;
    SpawnSource *source;
    /** cycleLimitFor(cfg, trace size): past it the run has hung. */
    std::uint64_t cycleLimit;
    /** Per-trace indexes (spawn targets, store->consumer loads);
     *  either shared by the caller or privately owned. */
    const TraceIndex *index = nullptr;
    std::unique_ptr<TraceIndex> ownedIndex;
    /** @} */

    /** @name Pipeline state @{ */
    std::vector<InstrState> istate;  //!< indexed by trace position
    std::vector<Task> tasks;         //!< active tasks, oldest first
    /** Fetch's eligible task positions, reused across cycles. */
    std::vector<size_t> eligible;
    /** Scheduler occupancy, oldest age key first up to the entries
     *  rename and divert release appended this cycle; issue repairs
     *  the order before it selects (stages.hh). Each entry carries
     *  the producer it last waited on. Invariant: every entry's
     *  instruction is InSched (squashFromTask purges eagerly). */
    std::vector<SchedEntry> sched;
    /** Divert-queue occupancy, FIFO. A flat vector: entries only
     *  append at the tail and leave by compaction, never by
     *  front-pop. Each entry carries the producer holding it.
     *  Invariant: every entry's instruction is Diverted. */
    std::vector<DivertEntry> divert;
    std::vector<Violation> pendingViolations;
    int robUsed = 0;
    TraceIdx commitIdx = 0;
    std::uint64_t now = 0;
    /** Instructions committed this cycle (set by the commit stage,
     *  consumed by accounting). */
    int cycleCommits = 0;
    /** Expiry cycles of contexts held by wrong-path (ghost)
     *  tasks. */
    std::vector<std::uint64_t> ghosts;
    PendingSpawn pending;
    /** @} */

    /** @name Predictors and memories @{ */
    MemHierarchy hier;
    GsharePredictor gshare;
    IndirectPredictor indirect;
    /** Rename-stage register/memory dependence predictors (flat,
     *  image-indexed; see dep_predictors.hh). */
    DepPredictors depPred;
    /** @} */

    /** Spawn-profitability feedback, image-indexed (empty for the
     *  spawning-free baseline). */
    std::vector<TriggerFeedback> feedback;

    /** @name Outputs @{ */
    TimingResult res;
    std::vector<TaskEvent> *events = nullptr;
    /** @} */

    /** @name Queries shared by several stages
     * All inline (in the class or below it): they run per
     * instruction per cycle in several stage files, and must inline
     * into each of them.
     * @{ */

    /** Position in tasks of the task owning @p i; throws if none. */
    size_t taskPosOf(TraceIdx i) const;

    /** May the task at @p taskPos allocate another ROB entry?
     *  Younger tasks leave headroom so the head task always makes
     *  progress toward in-order commit (deadlock freedom;
     *  DESIGN.md). */
    bool robAllowed(size_t taskPos) const;

    /** Execution latency class of a static instruction. */
    int execLatency(const LinkedInstr &li) const;

    /** True if the consumer @p d, owned by @p t, synchronizes on
     *  its register producer @p p of source register @p src instead
     *  of speculating past it: a same-task producer, a compiler
     *  dep-mask hint, or a predicted dependence. */
    bool
    regSyncNeeded(TraceIdx p, RegId src, const DynInstr &d,
                  const Task &t) const
    {
        return p >= t.begin ||
            (cfg.compilerDepHints && ((t.depMask >> src) & 1)) ||
            depPred.predictsRegDep(d.img);
    }

    /** The first producer that keeps instruction @p i in the
     *  divert queue: a register producer it synchronizes on that
     *  has not been renamed (same task) or issued (older task) yet,
     *  or a load's synchronized store that has not produced its
     *  data. False if nothing holds @p i. */
    Blocker divertBlocker(TraceIdx i, const DynInstr &d,
                          const Task &t) const;
    /** True while @p b's producer has not yet done what the entry
     *  waits for. A producer's stage only moves forward, so once
     *  this is false it stays false. The one exception is a squash,
     *  which squashes every younger instruction with the producer. */
    bool holds(const Blocker &b) const;
    /** True if load @p i must synchronize on its producing store. */
    bool loadSyncNeeded(TraceIdx i, const DynInstr &d,
                        const Task &t) const;

    /** Producer @p p has its result available at @p cycle. */
    bool
    doneAt(TraceIdx p, std::uint64_t cycle) const
    {
        const InstrState &s = istate[p];
        return s.stage == InstrStage::Committed ||
            (s.stage == InstrStage::Issued &&
             s.completeCycle <= cycle);
    }

    const LinkedInstr &
    staticOf(TraceIdx i) const
    {
        return trace->staticOf(i);
    }

    /** Feedback slot of a retired/squashed task's trigger. */
    TriggerFeedback &
    feedbackOf(const Task &t)
    {
        return feedback[t.triggerImg];
    }

    /** @} */
};

inline size_t
MachineState::taskPosOf(TraceIdx i) const
{
    auto it = std::upper_bound(
        tasks.begin(), tasks.end(), i,
        [](TraceIdx v, const Task &t) { return v < t.begin; });
    if (it != tasks.begin()) {
        --it;
        if (i < it->end)
            return static_cast<size_t>(it - tasks.begin());
    }
    throw std::runtime_error("taskPosOf: index not in any task");
}

inline bool
MachineState::robAllowed(size_t taskPos) const
{
    int reserve =
        cfg.robReservePerOlderTask * static_cast<int>(taskPos);
    return robUsed < cfg.robEntries - reserve;
}

inline int
MachineState::execLatency(const LinkedInstr &li) const
{
    switch (li.instr.op) {
      case Opcode::MUL:
        return cfg.mulLatency;
      case Opcode::DIVU:
      case Opcode::REMU:
        return cfg.divLatency;
      default:
        return cfg.intLatency;
    }
}

inline bool
MachineState::loadSyncNeeded(TraceIdx i, const DynInstr &d,
                             const Task &t) const
{
    if (!staticOf(i).instr.isLoad() || d.memProd == invalidTrace)
        return false;
    if (istate[d.memProd].stage == InstrStage::Committed)
        return false;
    bool same_task = d.memProd >= t.begin;
    return same_task || depPred.predictsMemDep(d.img);
}

inline bool
MachineState::holds(const Blocker &b) const
{
    switch (b.until) {
      case Await::Nothing:
        return false;
      case Await::Rename:
        return istate[b.producer].stage < InstrStage::InSched;
      case Await::Issue:
        return istate[b.producer].stage < InstrStage::Issued;
      case Await::Result:
        return !doneAt(b.producer, now);
    }
    return false;
}

inline Blocker
MachineState::divertBlocker(TraceIdx i, const DynInstr &d,
                            const Task &t) const
{
    // An instruction synchronizes (stays diverted) while a producer
    // it is predicted to depend on has not been renamed yet.
    // Same-task producers are always synchronized: in-order rename
    // has seen them, and following them into the divert queue keeps
    // the scheduler free of entries that could never wake up
    // (deadlock freedom; see DESIGN.md). Cross-task register
    // producers are synchronized only when the rename-stage
    // dependence predictor says so; otherwise the consumer
    // speculates and may trigger a violation at issue.
    const LinkedInstr &li = staticOf(i);
    RegId srcs[2];
    int nsrc = li.instr.srcRegs(srcs);
    for (int k = 0; k < nsrc; ++k) {
        TraceIdx p = d.prod[k];
        if (p == invalidTrace || !regSyncNeeded(p, srcs[k], d, t))
            continue;
        // Same-task values flow through the scheduler normally:
        // divert only while the producer is not yet renamed (it may
        // itself sit in the divert queue). Synchronized cross-task
        // consumers re-enter rename once the producer has issued
        // ("some time after its producer has been dispatched",
        // paper Section 3.1); the scheduler's wakeup covers the
        // rest.
        Blocker b{p, p >= t.begin ? Await::Rename : Await::Issue};
        if (holds(b))
            return b;
    }
    if (loadSyncNeeded(i, d, t)) {
        Blocker b{d.memProd, Await::Result};
        if (holds(b))
            return b;
    }
    return {};
}

} // namespace polyflow::sim

#endif // POLYFLOW_SIM_MACHINE_STATE_HH
