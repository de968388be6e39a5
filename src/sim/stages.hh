/**
 * @file
 * The pipeline stages of the PolyFlow machine (Figure 7) as plain
 * functions over sim::MachineState, declared in the order step()
 * calls them each cycle:
 *
 *   commit -> accountCycle -> releaseDiverted -> issue -> dispatch
 *   -> fetch -> applySpawn -> recover
 *
 * The cycle that commits the last instruction stops after commit.
 * A stage reads and writes only the MachineState it is given, so a
 * test can drive one stage on a hand-built state
 * (tests/test_stages.cc). Each stage's body lives in its own .cc
 * file: commit.cc, accounting.cc, backend.cc, rename.cc,
 * frontend.cc and recovery.cc. Internal to src/sim.
 */

#ifndef POLYFLOW_SIM_STAGES_HH
#define POLYFLOW_SIM_STAGES_HH

#include <cstddef>

#include "sim/core.hh"
#include "sim/machine_state.hh"

namespace polyflow::sim {

/**
 * Commit up to pipelineWidth instructions of the head task in trace
 * order, feeding each to a spawn source that trains; a fully
 * committed task retires its context, feeding spawn profitability
 * back to its trigger. Leaves the cycle's commit count
 * in MachineState::cycleCommits for accountCycle().
 */
void commit(MachineState &m);

/**
 * Per-cycle issue-slot accounting: commits fill Committed, and every
 * empty slot goes to whatever keeps the oldest uncommitted
 * instruction from committing (head-of-ROB blame). Call once per
 * counted cycle, right after commit(). The taxonomy and the blame
 * tree are in docs/OBSERVABILITY.md; the enforced identity is
 * sum(res.slots) == cycles * issueWidth.
 */
void accountCycle(MachineState &m);

/**
 * Re-dispatch diverted instructions whose wake-up condition holds
 * (producer renamed/issued) into the scheduler, after the FIFO
 * re-dispatch latency, at most pipelineWidth a cycle.
 *
 * Wakeup is event-driven, like the hardware's producer broadcast.
 * A held entry is parked on the producer that holds it
 * (DivertEntry::heldBy): on that producer's waiter list, or in the
 * completion wheel's bucket when it waits for a result already
 * scheduled. The producer reaching the scheduler (dispatch or this
 * stage), issuing (issue) or completing (the wheel) wakes it. The
 * queue's scan (EntryQueue::scan, in FIFO order) visits the woken
 * entries and those the rule (MachineState::readiness) has let go
 * that wait out the latency or scheduler room (Step::Stay). The
 * rule runs on every entry the scan visits: a blocker parks it, a
 * held entry it lets go starts the latency, and a let-go entry past
 * the latency with scheduler room enters the scheduler with its
 * first issue wait (Readiness::wait).
 */
void releaseDiverted(MachineState &m);

/**
 * Issue ready scheduler entries to the FUs, oldest first.
 * Unsynchronized cross-task consumers may issue with a stale value;
 * those, and stores that execute after dependent cross-task loads
 * already issued, queue dependence violations for recover().
 *
 * The scheduler's scan (EntryQueue::scan, oldest first) visits only
 * ready entries. The rule (MachineState::readiness) decides each
 * one: a synchronized result it lacks (Readiness::wait) makes it
 * record that producer (SchedEntry::waitOn) and park on it, on the
 * producer's waiter list until it issues, then in the completion
 * wheel until its result is ready; an unsynchronized producer not
 * done is a stale read. Rename and divert release park an entry
 * that way as it enters, when that producer will not be done by its
 * first issue check, so it is not visited just to park. Issue
 * resolves each entry's owning task by walking the task table in
 * lockstep with the ascending keys.
 */
void issue(MachineState &m);

/**
 * Rename up to pipelineWidth instructions, oldest task first. A
 * consumer the dependence predictors (or the compiler dep mask) mark
 * as synchronized enters the divert queue holding its ROB entry;
 * everything else dispatches to the scheduler, parked on the first
 * synchronized result it will lack next cycle, if any. Stalls on
 * frontend depth (inFrontend), a full queue (roomFor) and ROB
 * admission (robAllowed), the queries accountCycle blames a stalled
 * head with.
 */
void dispatch(MachineState &m);

/**
 * One SMT fetch cycle: release each task whose mispredicted branch
 * has resolved (fetch resumes after the mispredict penalty, charged
 * to the Mispredict stall cause), pick the tasks fetch may serve
 * (MachineState::canFetch) by biased ICount, fetch up to
 * pipelineWidth instructions across at most fetchTasksPerCycle of
 * them, and consult the branch predictors (a mispredict blocks that
 * task's fetch until resolution). The Task Spawn Unit observes every
 * instruction fetched by a task that may spawn; a spawn decision
 * truncates the parent at once and records the new context in
 * MachineState::pending. Each fetched instruction reads its static
 * facts (I-cache line, control class, spawn hint) from one
 * per-image record (MachineState::fetchOps); only a source's
 * non-fixed hints (SpawnSource::fixedAt) are queried per fetch.
 */
void fetch(MachineState &m);

/**
 * Apply the cycle's pending spawn, if any: allocate the new task
 * context right after its parent. Deferred so task positions stay
 * stable while fetch() iterates.
 */
void applySpawn(MachineState &m);

/**
 * Handle the cycle's pending violations: train the dependence
 * predictor of the oldest violating consumer and squash from the
 * consumer's task (everything younger would be squashed anyway).
 */
void recover(MachineState &m);

/**
 * One cycle of @p m: every stage above in order, each timed into its
 * @p profile slot when @p profile is non-null, then the clock
 * advance. Returns false, leaving the clock where it was, when the
 * cycle committed the last instruction (the partial cycle, which is
 * neither counted nor accounted). runTiming and the queue-checking
 * test loop both run a machine by calling this until it returns
 * false.
 */
bool step(MachineState &m, StageProfile *profile = nullptr);

/**
 * Squash the task at @p taskPos and every younger task: reset their
 * instructions to un-fetched, free their ROB share, and restart
 * fetch at the range start after the squash penalty.
 */
void squashFromTask(MachineState &m, size_t taskPos);

} // namespace polyflow::sim

#endif // POLYFLOW_SIM_STAGES_HH
