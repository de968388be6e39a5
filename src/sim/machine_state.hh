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
 *    per-instruction pipeline positions, the task table, the
 *    scheduler and divert-queue entries with the waiter lists that
 *    park them, fetch's reusable eligible-task
 *    buffer, predictors, caches, spawn feedback and the accumulating
 *    TimingResult.
 *  - The committed trace and a TraceIndex the caller passes are
 *    borrowed read-only (the sweep engine shares them across
 *    concurrent simulations); without one, a spawning machine builds
 *    and owns its own (ownedIndex). The spawn source is borrowed,
 *    and commit trains it if it trains (SpawnSource::trains).
 *
 * Methods on MachineState are *queries* used by more than one stage
 * (task lookup, the one-pass synchronization rule, resource
 * admission) and the queue entry and wakeup bookkeeping several
 * stages share; anything that advances the pipeline is a stage
 * function. What a stage needs of a static instruction is decoded
 * once per machine into image-indexed tables (DecodedOp, FetchOp).
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
 *  cycle is the fetch cycle while the instruction is Fetched and its
 *  completion cycle once it has Issued; only one is live at a time.
 *  Cycles are 32-bit: the MachineState constructor rejects a trace
 *  whose cycle limit (plus the longest latency) does not fit. */
struct InstrState
{
    InstrStage stage = InstrStage::None;
    std::uint32_t cycle = 0;
};
static_assert(sizeof(InstrState) == 8);

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
    /** blockedOnBranch's fetch cycle + minMispredictPenalty. */
    std::uint64_t redirectFloor = 0;
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
    TraceIdx idx = invalidTrace;  //!< invalidTrace in a free slot
    /** The producer that held the entry when the divert rule
     *  (MachineState::readiness) last ran on it. While it holds
     *  (MachineState::holds), the entry is parked on its waiter list
     *  or wheel bucket and no stage looks at it. Cleared once the
     *  rule lets the entry go. */
    Blocker heldBy{};
    /** Cycle the entry may re-enter rename; set when the rule first
     *  lets it go, meaningful only while heldBy is clear. */
    std::uint64_t readyAt = 0;
    /** FIFO position: entries diverted before this one. */
    std::uint64_t seq = 0;

    /** Scan order of the divert queue: FIFO. */
    std::uint64_t order() const { return seq; }
};

/** One scheduler entry. */
struct SchedEntry
{
    TraceIdx idx = invalidTrace;  //!< age key; invalidTrace if free
    /** The synchronized register producer or store whose result
     *  kept the entry from issuing when issue last ran the full
     *  readiness rule; invalidTrace if none. Until that result is
     *  ready the entry is parked on the producer's waiter list or
     *  wheel bucket. */
    TraceIdx waitOn = invalidTrace;

    /** Scan order of the scheduler: oldest first. */
    std::uint64_t order() const { return idx; }
};

/** A queue slot number. Scheduler slot s is waiter node s and
 *  divert slot d is node (scheduler slots) + d, so the waiter lists
 *  need no storage beyond one link per slot. */
using Slot = std::uint32_t;
constexpr Slot noSlot = ~Slot(0);

/** What a scan step (EntryQueue::scan) did with its entry. */
enum class Step : std::uint8_t {
    Stay,   //!< still ready: the next scan visits it again
    Leave,  //!< parked on a producer: off the ready list
    Spend,  //!< left the queue, using one unit of the scan's budget
};

/**
 * Fixed-slot storage of the scheduler or the divert queue, one slot
 * per entry the config allows. An entry keeps its slot from entering
 * the queue until it leaves it or a squash purges it. Every entry is
 * either ready (listed in `ready`, which its stage scans) or parked
 * on exactly one waiter list or wheel bucket of MachineState.
 */
template <class Entry>
struct EntryQueue
{
    explicit EntryQueue(int capacity)
        : slots(size_t(capacity)), freeSlots(size_t(capacity))
    {
        for (size_t k = 0; k < freeSlots.size(); ++k)
            freeSlots[k] = Slot(freeSlots.size() - 1 - k);
    }

    /** Occupancy: ready and parked entries alike. */
    int size() const { return int(slots.size() - freeSlots.size()); }
    bool empty() const { return size() == 0; }

    Slot
    take(const Entry &e)
    {
        const Slot s = freeSlots.back();
        freeSlots.pop_back();
        slots[s] = e;
        return s;
    }

    void
    release(Slot s)
    {
        slots[s] = Entry{};
        freeSlots.push_back(s);
    }

    /** A ready entry's slot, with its scan-order key
     *  (Entry::order) beside it so ordering reads no slot. */
    struct Ready
    {
        std::uint64_t key;
        Slot slot;
    };

    /** Entry @p s joins the next scan: one that is ready as it
     *  enters the queue, or one a wakeup unparked. */
    void makeReady(Slot s) { ready.push_back({slots[s].order(), s}); }

    /**
     * Call @p step(slot) on each ready entry in scan order
     * (Entry::order, unique per entry) until @p budget entries have
     * Spent, first sorting in the entries appended since the last
     * scan. The step returns Stay (the entry stays ready, ahead of
     * the unexamined tail), Leave (it parked) or Spend (it left the
     * queue; the step freed its slot). Entries a step makes ready are
     * merged into the unexamined ones, so this scan reaches those
     * keyed behind the current entry. A step must not touch `ready`
     * otherwise.
     */
    template <class StepFn>
    void
    scan(int budget, StepFn step)
    {
        if (ready.size() > sorted)
            insertSorted(0, std::max<size_t>(sorted, 1));
        // Entries that Stay move down to the write index w; the scan
        // holds no reference into `ready`, which a step may grow.
        size_t w = 0, j = 0;
        for (; j < ready.size() && budget > 0; ++j) {
            const size_t woken = ready.size();
            switch (step(ready[j].slot)) {
              case Step::Stay: ready[w++] = ready[j]; break;
              case Step::Leave: break;
              case Step::Spend: --budget; break;
            }
            if (ready.size() > woken)
                insertSorted(j + 1, woken);
        }
        // The unexamined tail stays, in order, behind the entries
        // that stayed.
        ready.erase(ready.begin() + w, ready.begin() + j);
        sorted = ready.size();
    }

    /** Free every used slot whose entry fails @p live(slot), and drop
     *  it from `ready`, keeping the list's order. */
    template <class Live>
    void
    purge(Live live)
    {
        size_t w = 0, kept = 0;
        for (size_t j = 0; j < ready.size(); ++j) {
            if (live(ready[j].slot)) {
                kept += j < sorted;
                ready[w++] = ready[j];
            }
        }
        ready.resize(w);
        sorted = kept;
        for (Slot s = 0; s < slots.size(); ++s) {
            if (slots[s].idx != invalidTrace && !live(s))
                release(s);
        }
    }

    std::vector<Entry> slots;
    std::vector<Slot> freeSlots;  //!< taken from the back
    /** The entries the next scan examines, ready and unparked. */
    std::vector<Ready> ready;
    /** ready[0, sorted) is in scan order: what the last scan left.
     *  Later entries were appended since. */
    size_t sorted = 0;

  private:
    /** Insertion-sort ready[from, end) by key into ready[lo, from),
     *  which is sorted. Adaptive: entries that join in order cost
     *  one compare. */
    void
    insertSorted(size_t lo, size_t from)
    {
        for (size_t j = from; j < ready.size(); ++j) {
            const Ready v = ready[j];
            size_t k = j;
            for (; k > lo && ready[k - 1].key > v.key; --k)
                ready[k] = ready[k - 1];
            ready[k] = v;
        }
    }
};

/** Operands of one static instruction, decoded once per machine so
 *  rename, divert release and issue read one entry per dynamic
 *  instruction: its sources without r0, its opcode class and its
 *  latency under this machine's config. */
struct DecodedOp
{
    /** Execution latency of a non-memory op: the config's int, mul
     *  or div latency, by the opcode's functional-unit class. */
    std::int32_t latency = 0;
    RegId src[2] = {};
    std::uint8_t nsrc = 0;
    OpClass cls = OpClass::Nop;
};
static_assert(sizeof(DecodedOp) == 8);

/** How the Task Spawn Unit gets the hint of a static instruction. */
enum class SpawnAt : std::uint8_t {
    None,   //!< the source never spawns here
    Fixed,  //!< always FetchOp::hint (SpawnSource::fixedAt)
    Ask,    //!< SpawnSource::query at each fetch
};

/** What fetch needs of one static instruction, decoded once per
 *  machine so fetch reads one table entry instead of the LinkedInstr,
 *  Instruction's predicates and a spawn-source query. */
struct FetchOp
{
    Addr pc = invalidAddr;
    /** L1 instruction-cache line number: pc >> log2(l1i.lineBytes). */
    Addr line = invalidAddr;
    /** The spawn hint when spawn is Fixed. */
    SpawnHint hint{invalidAddr, SpawnKind::Other, 0};
    /** The opcode's class: the control transfer fetch predicts. */
    OpClass cls = OpClass::Nop;
    SpawnAt spawn = SpawnAt::None;
};

/**
 * What the synchronization rule finds for one instruction at one
 * cycle (MachineState::readiness). A consumer either synchronizes on
 * a producer, waiting for it, or speculates past it (paper Section
 * 3.1).
 */
struct Readiness
{
    /** What keeps it in (or sends it to) the divert queue now: the
     *  first synchronized register producer not yet renamed (same
     *  task) or issued (older task), else a load's synchronized
     *  store that has not produced its data. */
    Blocker blocker{};
    /** The first synchronized producer whose result it lacks at the
     *  cycle asked about, register producers before the store, or
     *  invalidTrace if it may issue then. */
    TraceIdx wait = invalidTrace;
    /** An unsynchronized register producer is not done: issuing now
     *  reads a stale value. Complete only when blocker is clear. */
    bool staleRead = false;
    /** A load's unsynchronized store that has issued but is not
     *  done, so issuing now reads stale data; else invalidTrace.
     *  Complete only when blocker is clear. */
    TraceIdx inFlightStore = invalidTrace;
};

/** A task fetch may serve this cycle, with its biased-ICount key. */
struct FetchCandidate
{
    long long key;
    size_t pos;  //!< position in MachineState::tasks
};

/** A spawn decided mid-fetch, applied at end of cycle so task
 *  positions stay stable while the frontend iterates. */
struct PendingSpawn
{
    bool valid = false;
    /** Position of the spawning task in MachineState::tasks. */
    size_t parentPos = 0;
    SpawnKind kind{};
    /** The child context, complete; applySpawn inserts it as is. */
    Task task;
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
     * @throws std::runtime_error on an empty trace, a trace with no
     *         program (Trace::prog), or one too long for 32-bit
     *         cycles (cycleLimitFor)
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
    /** Fetch's eligible tasks in the order it serves them, reused
     *  across cycles. */
    std::vector<FetchCandidate> eligible;
    /** Scheduler entries, ready or parked. issue() scans the ready
     *  ones oldest first; a parked one waits for the result it
     *  lacked (SchedEntry::waitOn). Invariant: every entry's
     *  instruction is InSched (squashFromTask purges eagerly). */
    EntryQueue<SchedEntry> sched;
    /** Divert-queue entries, ready or parked. releaseDiverted()
     *  scans the ready ones in FIFO order (DivertEntry::seq); a
     *  parked one waits while its blocker holds
     *  (DivertEntry::heldBy). Invariant: every entry's instruction
     *  is Diverted. */
    EntryQueue<DivertEntry> divert;
    /** DivertEntry::seq of the next diverted instruction. */
    std::uint64_t divertSeq = 0;
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

    /** @name Waiter lists and the completion wheel
     * A parked queue entry waits on its producer's waiter list until
     * the producer is renamed or issues, like a consumer waiting for
     * a CAM broadcast. One that waits for a result its producer has
     * already scheduled waits in the wheel bucket of that completion
     * cycle instead. The lists link queue nodes (Slot) through
     * waiterNext, so they cost one head per trace instruction and
     * one link per queue slot.
     * @{ */
    std::vector<Slot> waiterHead;  //!< first waiter, by trace position
    std::vector<Slot> waiterNext;  //!< next node on the same list
    /** First waiter by completion cycle modulo the size, a power of
     *  two above the longest latency. */
    std::vector<Slot> wheel;
    /** The wheel's buckets are woken through this cycle. */
    std::uint64_t wheelDrained = 0;
    /** @} */

    /** Decoded operands, indexed by image index. */
    std::vector<DecodedOp> ops;
    /** What fetch reads of each static instruction, indexed by image
     *  index. */
    std::vector<FetchOp> fetchOps;
    /** The source trains on committed instructions
     *  (SpawnSource::trains), so commit feeds it. */
    bool sourceTrains = false;

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

    /** Fetched instruction @p i has not yet come through the
     *  frontend (frontendDepth cycles), so rename cannot take it. */
    bool
    inFrontend(TraceIdx i) const
    {
        return std::uint64_t(istate[i].cycle) + frontendDepth > now;
    }

    /** The queue @p r sends its instruction to has room: the divert
     *  queue when something blocks it, else the scheduler. */
    bool
    roomFor(const Readiness &r) const
    {
        return r.blocker ? divert.size() < cfg.divertEntries
                         : sched.size() < cfg.schedEntries;
    }

    /** Fetch may serve task @p t this cycle: it has instructions
     *  left, no stall or unresolved mispredict holds it, and its
     *  fetch queue has room. */
    bool
    canFetch(const Task &t) const
    {
        return t.fetchIdx < t.end && t.fetchReady <= now &&
            t.blockedOnBranch == invalidTrace &&
            static_cast<int>(t.fetchIdx - t.dispIdx) <
                cfg.fetchQueueEntries;
    }

    /** True if the consumer with static instruction @p img, owned
     *  by @p t, synchronizes on its register producer @p p of source
     *  register @p src instead of speculating past it: a same-task
     *  producer, a compiler dep-mask hint, or a predicted
     *  dependence. */
    bool
    regSyncNeeded(TraceIdx p, RegId src, ImageIdx img, const Task &t) const
    {
        return p >= t.begin ||
            (compilerDepHints && ((t.depMask >> src) & 1)) ||
            depPred.predictsRegDep(img);
    }

    /** True if the load with static instruction @p img, owned by
     *  @p t, synchronizes on its producing store @p store instead of
     *  speculating past it: a same-task store, or a predicted
     *  dependence. */
    bool
    memSyncNeeded(TraceIdx store, ImageIdx img, const Task &t) const
    {
        return store >= t.begin || depPred.predictsMemDep(img);
    }

    /** The synchronization rule for trace position @p i, owned by @p t,
     *  in one pass over its producers not done by now, asked about
     *  its issue at @p cycle (not before now). Rename asks about
     *  now + 1; divert release, issue and the slot accounting ask
     *  about now. */
    [[gnu::always_inline]] Readiness
    readiness(TraceIdx i, const Task &t, std::uint64_t cycle) const;
    /** True while @p b's producer has not yet done what the entry
     *  waits for. A producer's stage only moves forward, so once
     *  this is false it stays false. The one exception is a squash,
     *  which squashes every younger instruction with the producer. */
    bool holds(const Blocker &b) const;

    /** Producer @p p has its result available at @p cycle. */
    bool
    doneAt(TraceIdx p, std::uint64_t cycle) const
    {
        const InstrState &s = istate[p];
        return s.stage == InstrStage::Committed ||
            (s.stage == InstrStage::Issued &&
             s.cycle <= cycle);
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

    /** @name Queue entry and wakeup
     * The bookkeeping that rename, divert release, issue and
     * recovery share. A wakeup, like an entry that enters ready,
     * joins its queue's next scan (EntryQueue::scan).
     * @{ */

    /** Put @p i in the scheduler, and wake the divert entries that
     *  wait for @p i to be renamed. The entry parks on @p waitOn if
     *  that is a producer, else it is ready. Rename and divert
     *  release pass readiness's wait at the entry's first issue
     *  cycle: issue would park it there anyway, since a sync
     *  decision never reverts, and the producer's issue or
     *  completion wakes it in time (in the same issue scan, for a
     *  result ready at once). */
    void enterSched(TraceIdx i, TraceIdx waitOn);
    /** Divert @p i, held by @p b (which holds), and park it. */
    void enterDivert(TraceIdx i, Blocker b);
    /** Park queue node @p node on its blocker (blockerOf), which
     *  must hold. */
    void park(Slot node);
    /** Producer @p p has issued: wake the entries waiting for that,
     *  and move those waiting for its result to the wheel (or wake
     *  them, if the result is ready now). */
    void
    onIssued(TraceIdx p)
    {
        if (waiterHead[p] != noSlot)
            wakeIssued(p);
    }
    /** Wake the wheel's entries whose results are ready by now. */
    void
    wakeDue()
    {
        if (now == wheelDrained + 1 &&
            wheel[now & (wheel.size() - 1)] == noSlot)
            wheelDrained = now;  // the one bucket due is empty
        else if (now > wheelDrained)
            drainWheel();
    }
    /** After a squash: drop every entry whose instruction left its
     *  queue's stage from the queues, the waiter lists and the
     *  wheel, and free its slot. */
    void purgeSquashed();

    /** Waiter node of divert slot @p d. */
    Slot
    divertNode(Slot d) const
    {
        return Slot(sched.slots.size()) + d;
    }
    /** The slow paths of enterSched, onIssued and wakeDue. */
    void wakeRenamed(TraceIdx p);
    void wakeIssued(TraceIdx p);
    void drainWheel();
    /** Move queue node @p node to its queue's ready list. */
    void
    wake(Slot node)
    {
        if (node < sched.slots.size())
            sched.makeReady(node);
        else
            divert.makeReady(node - Slot(sched.slots.size()));
    }

    /** What queue node @p node waits for (or last waited for). */
    Blocker
    blockerOf(Slot node) const
    {
        if (node < sched.slots.size())
            return {sched.slots[node].waitOn, Await::Result};
        return divert.slots[node - sched.slots.size()].heldBy;
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

inline void
MachineState::park(Slot node)
{
    const Blocker b = blockerOf(node);
    const InstrState &s = istate[b.producer];
    Slot &head = b.until == Await::Result && s.stage == InstrStage::Issued
        ? wheel[s.cycle & (wheel.size() - 1)]
        : waiterHead[b.producer];
    waiterNext[node] = head;
    head = node;
}

inline void
MachineState::enterSched(TraceIdx i, TraceIdx waitOn)
{
    istate[i].stage = InstrStage::InSched;
    const Slot s = sched.take({i, waitOn});
    if (waitOn == invalidTrace)
        sched.makeReady(s);
    else
        park(s);
    if (waiterHead[i] != noSlot)
        wakeRenamed(i);
}

inline void
MachineState::enterDivert(TraceIdx i, Blocker b)
{
    istate[i].stage = InstrStage::Diverted;
    park(divertNode(divert.take({i, b, 0, divertSeq++})));
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

inline Readiness
MachineState::readiness(TraceIdx i, const Task &t,
                        std::uint64_t cycle) const
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
    //
    // A producer done by now is done at cycle too and holds
    // nothing, so the rule looks only at the incomplete ones.
    Readiness r;
    const ImageIdx img = trace->instrs[i].img();
    const DecodedOp &op = ops[img];
    for (int k = 0; k < op.nsrc; ++k) {
        const TraceIdx p = trace->prod(i, k);
        if (p == invalidTrace || doneAt(p, now))
            continue;
        if (!regSyncNeeded(p, op.src[k], img, t)) {
            r.staleRead = true;
            continue;
        }
        if (r.wait == invalidTrace && !doneAt(p, cycle))
            r.wait = p;
        // Same-task values flow through the scheduler normally:
        // divert only while the producer is not yet renamed (it may
        // itself sit in the divert queue). Synchronized cross-task
        // consumers re-enter rename once the producer has issued
        // ("some time after its producer has been dispatched",
        // paper Section 3.1); the scheduler's wakeup covers the
        // rest.
        const Blocker b{p, p >= t.begin ? Await::Rename : Await::Issue};
        if (holds(b)) {
            r.blocker = b;
            return r;
        }
    }
    // A load's store holds it until the data is there.
    if (op.cls == OpClass::Load) {
        const TraceIdx store = trace->memProd(i);
        if (store != invalidTrace && !doneAt(store, now)) {
            if (memSyncNeeded(store, img, t)) {
                if (r.wait == invalidTrace && !doneAt(store, cycle))
                    r.wait = store;
                r.blocker = {store, Await::Result};
            } else if (istate[store].stage == InstrStage::Issued) {
                r.inFlightStore = store;
            }
        }
    }
    return r;
}

} // namespace polyflow::sim

#endif // POLYFLOW_SIM_MACHINE_STATE_HH
