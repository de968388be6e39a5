/**
 * @file
 * TimingResult: everything a timing run reports.
 */

#ifndef POLYFLOW_SIM_RESULT_HH
#define POLYFLOW_SIM_RESULT_HH

#include <array>
#include <cstdint>
#include <string>

#include "spawn/spawn_point.hh"

namespace polyflow {

/** One task lifecycle event, for timeline tracing. */
struct TaskEvent
{
    enum class Kind : std::uint8_t { Spawn, Retire, Squash };
    Kind kind;
    std::uint64_t cycle;
    /** Trace range of the task. */
    std::uint32_t begin, end;
    /** Trigger PC that spawned it (invalid for the root task). */
    std::uint64_t triggerPc;
    /** Commit frontier (oldest uncommitted trace index) when the
     *  event fired. A squash may never hit committed work, so
     *  commitFrontier <= begin holds for every Squash event. */
    std::uint64_t commitFrontier = 0;
    /** Instructions this task sent through the divert queue during
     *  the incarnation ending here (Retire/Squash; 0 for Spawn). */
    std::uint32_t diverted = 0;

    bool operator==(const TaskEvent &) const = default;
};

/**
 * Cycle-accounting buckets: every (cycle x issue-slot) of a run is
 * attributed to exactly one of these. Slots that retire an
 * instruction are Committed; empty slots are blamed on whatever is
 * holding back the oldest uncommitted instruction (head-of-ROB
 * blame, in the style of top-down cycle accounting). The taxonomy
 * and the decision tree are documented in docs/OBSERVABILITY.md.
 */
enum class SlotBucket : std::uint8_t {
    Committed,        //!< slot retired an instruction
    FetchMispredict,  //!< head fetch stalled on an unresolved or
                      //!< just-resolved branch mispredict
    FetchICache,      //!< head fetch waiting on an icache miss
    DivertWait,       //!< head serialized in the divert queue (or
                      //!< rename blocked by a full divert queue)
    SchedulerFull,    //!< head fetched, scheduler has no free entry
    RobFull,          //!< head fetched, ROB has no free entry
    SquashRefetch,    //!< head task restarting after a violation
                      //!< squash
    NoTask,           //!< head not yet fetched and no classified
                      //!< stall: cold start, context startup, or
                      //!< fetch bandwidth spent on other tasks
    Drain,            //!< head in the backend (scheduler or FU)
                      //!< waiting on operands or latency
    NumBuckets,
};

constexpr int numSlotBuckets =
    static_cast<int>(SlotBucket::NumBuckets);

/** Stable display/export name of a bucket. */
inline const char *
slotBucketName(SlotBucket b)
{
    switch (b) {
      case SlotBucket::Committed: return "committed";
      case SlotBucket::FetchMispredict:
        return "fetch-stall:mispredict";
      case SlotBucket::FetchICache: return "fetch-stall:icache";
      case SlotBucket::DivertWait: return "divert-wait";
      case SlotBucket::SchedulerFull: return "scheduler-full";
      case SlotBucket::RobFull: return "rob-full";
      case SlotBucket::SquashRefetch: return "squash-refetch";
      case SlotBucket::NoTask: return "no-task";
      case SlotBucket::Drain: return "drain";
      case SlotBucket::NumBuckets: break;
    }
    return "?";
}

/** Aggregate statistics from one timing-simulator run. */
struct TimingResult
{
    std::string policyName;
    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;

    /** @name Cycle accounting @{ */
    /** Issue slots per cycle (the run's pipelineWidth). */
    std::uint64_t issueWidth = 0;
    /**
     * Issue slots attributed to each SlotBucket. The accounting
     * identity — enforced by tests/test_accounting.cc on curated
     * and fuzzed programs alike — is
     *
     *     sum(slots) == cycles * issueWidth
     *
     * (the final partial cycle, which commits the last instructions
     * and does not advance the cycle counter, is not accounted).
     */
    std::array<std::uint64_t, numSlotBuckets> slots{};

    /** Sum over all buckets (== cycles * issueWidth). */
    std::uint64_t
    slotTotal() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t v : slots)
            s += v;
        return s;
    }

    /** Share of all issue slots in @p b, in percent. */
    double
    slotPercent(SlotBucket b) const
    {
        std::uint64_t total = slotTotal();
        return total ? 100.0 *
                double(slots[static_cast<int>(b)]) / double(total)
                     : 0.0;
    }
    /** @} */

    /** @name Task spawning @{ */
    std::uint64_t spawns = 0;
    std::array<std::uint64_t, numSpawnKinds> spawnsByKind{};
    /** Instructions fetched by a task that may spawn, with no spawn
     *  decided yet that cycle, while every context (tasks plus
     *  wrong-path ghosts) was taken. The spawn unit counts them
     *  before it looks for a hint, so most are fetches at no spawn
     *  point, not refused spawns. */
    std::uint64_t spawnsSkippedNoContext = 0;
    std::uint64_t spawnsSkippedDistance = 0;
    std::uint64_t spawnsSkippedFeedback = 0;
    std::uint64_t triggersDisabled = 0;
    std::uint64_t tasksRetired = 0;
    /** @} */

    /** @name Squashes and synchronization @{ */
    std::uint64_t violations = 0;
    std::uint64_t tasksSquashed = 0;
    std::uint64_t instrsDiverted = 0;
    std::uint64_t divertQueueFullStalls = 0;
    /** @} */

    /** @name Front end @{ */
    std::uint64_t condBranches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t indirectMispredicts = 0;
    std::uint64_t returnMispredicts = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheMisses = 0;
    /** @} */

    /** Memberwise equality — every counter, bucket and label. The
     *  run-invariance tests compare entire results with this. */
    bool operator==(const TimingResult &) const = default;

    double
    ipc() const
    {
        return cycles ? double(instrs) / double(cycles) : 0.0;
    }

    /** Percent speedup of this run over @p baseline. */
    double
    speedupOver(const TimingResult &baseline) const
    {
        if (cycles == 0)
            return 0.0;
        return 100.0 *
            (double(baseline.cycles) / double(cycles) - 1.0);
    }
};

} // namespace polyflow

#endif // POLYFLOW_SIM_RESULT_HH
