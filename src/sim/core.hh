/**
 * @file
 * The PolyFlow cycle-level timing simulator.
 *
 * The machine (Figure 7 of the paper) is an SMT core running up to
 * numTasks tasks carved out of one sequential stream. The Task Spawn
 * Unit resolves a hint to the next occurrence of its target, a block
 * start or a call's return address, anywhere later in the trace
 * (TraceIndex::nextOccurrence). That may lie in a deeper recursive
 * frame, or after the trigger's frame has returned, so a task need
 * not be control-equivalent to its parent (ROADMAP.md item 1, "Make
 * spawn resolution control-equivalent"). The model is
 * execution-driven in two phases: the functional golden model
 * produces the committed dynamic trace (isa/functional_sim.hh), and
 * this engine replays it cycle by cycle with real predictors, caches
 * and resource contention. Wrong-path fetch is modelled as a
 * per-task fetch stall from the mispredicted fetch until branch
 * resolution (see DESIGN.md for why this preserves the paper's
 * first-order effects).
 *
 * runTiming() runs one machine from start to finish;
 * TimingSim::runBatch() runs several, one after another. Both go
 * through the one cycle loop in core.cc. All microarchitectural
 * state lives in sim::MachineState (machine_state.hh), built just
 * before a run and freed after it, and each pipeline stage is a
 * plain function over it (stages.hh). Per cycle:
 *
 *   commit -> [accountCycle] -> releaseDiverted -> issue -> dispatch
 *   -> fetch -> applySpawn -> recover
 */

#ifndef POLYFLOW_SIM_CORE_HH
#define POLYFLOW_SIM_CORE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "isa/trace.hh"
#include "sim/config.hh"
#include "sim/result.hh"
#include "sim/spawn_source.hh"
#include "sim/trace_index.hh"

namespace polyflow {

/**
 * Wall-clock time spent inside each pipeline stage, accumulated only
 * when the @p profile argument of TimingSim::runBatch or sim::step
 * is non-null.
 *
 * The cycle loop reads the clock once at each stage boundary and
 * charges each stage the time since the previous read. Every machine
 * run adds its stage times and its cycles, so stageNs / cycles is
 * the per-cycle average over all machines profiled into one sink.
 */
struct StageProfile
{
    std::uint64_t commitNs = 0;      //!< commit
    std::uint64_t accountingNs = 0;  //!< slot-bucket attribution
    std::uint64_t divertNs = 0;      //!< divert-queue release
    std::uint64_t issueNs = 0;       //!< wakeup/select + FUs
    std::uint64_t renameNs = 0;      //!< rename/dispatch
    std::uint64_t fetchNs = 0;       //!< stall release + fetch + spawn
    std::uint64_t recoveryNs = 0;    //!< violations + squash
    /** Machine-cycles profiled (summed over machines). */
    std::uint64_t cycles = 0;
    std::uint64_t machines = 0;      //!< machines profiled

    /** Wall time across all stages. */
    std::uint64_t
    totalNs() const
    {
        return commitNs + accountingNs + divertNs + issueNs +
            renameNs + fetchNs + recoveryNs;
    }
};

/** One machine's inputs for TimingSim::runBatch. */
struct BatchItem
{
    /** Committed dynamic trace from the functional sim. */
    const Trace *trace = nullptr;
    /** Spawn source, or nullptr for the superscalar baseline. Must
     *  be private to this machine when it trains. */
    SpawnSource *source = nullptr;
    /** Precomputed indexes over @c trace (shared read-only), or
     *  nullptr to build private ones when spawning is enabled. */
    const TraceIndex *index = nullptr;
    /** Reported as TimingResult::policyName. */
    std::string label;
    /** Optional task-lifecycle event sink for this machine. */
    std::vector<TaskEvent> *events = nullptr;
};

/** Runs several machines through the one cycle loop. */
struct TimingSim
{
    /**
     * Run every machine of @p items (same machine config,
     * independent traces) to completion, one after another, and
     * return their statistics in item order. Each machine's state
     * exists only during its own run, and each result equals a
     * runTiming over that item. @p profile, when non-null,
     * accumulates per-stage wall time over all the items.
     */
    static std::vector<TimingResult>
    runBatch(const MachineConfig &config,
             std::span<const BatchItem> items,
             StageProfile *profile = nullptr);
};

/**
 * Run @p trace on @p config to completion and return the
 * statistics.
 *
 * @param source spawn source, or nullptr for the superscalar
 *               baseline (no spawning)
 * @param name reported as TimingResult::policyName
 * @param sharedIndex precomputed indexes over @p trace, shared
 *               read-only across simulations (Session::simulate
 *               passes its cache's); nullptr builds private ones
 *               when spawning is enabled
 * @param events optional task-lifecycle event sink
 * @throws std::invalid_argument if MachineConfig::validate()
 *         rejects the config
 * @throws std::runtime_error on an empty trace, on a trace with no
 *         program (Trace::prog), on a trace too long for 32-bit
 *         cycles, or at the cycle limit
 *
 * Most callers should not need this directly: polyflow::Session
 * wires the whole trace → analyze → simulate pipeline
 * (polyflow.hh).
 */
TimingResult runTiming(const MachineConfig &config,
                       const Trace &trace, SpawnSource *source,
                       const std::string &name,
                       const TraceIndex *sharedIndex = nullptr,
                       std::vector<TaskEvent> *events = nullptr);

} // namespace polyflow

#endif // POLYFLOW_SIM_CORE_HH
