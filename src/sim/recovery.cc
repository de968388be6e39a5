#include "sim/stages.hh"

#include <algorithm>

namespace polyflow::sim {

namespace {

/** Feedback disables a trigger only after this many squashes with a
 *  sustained squash/spawn ratio; one-time dependence violations are
 *  handled by the predictors instead. */
constexpr int minSquashesToDisable = 16;

} // namespace

void
recover(MachineState &m)
{
    if (m.pendingViolations.empty())
        return;
    // Handle the oldest violating load; everything younger gets
    // squashed anyway. Its consumer is still live: violations are
    // raised by this cycle's issue(), and nothing squashes between
    // issue() and here.
    auto v = *std::min_element(
        m.pendingViolations.begin(), m.pendingViolations.end(),
        [](const Violation &a, const Violation &b) {
            return a.consumer < b.consumer;
        });
    m.pendingViolations.clear();

    ++m.res.violations;
    if (v.store == invalidTrace) {
        m.depPred.recordRegViolation(
            m.trace->instrs[v.consumer].img());
    } else {
        m.depPred.recordMemViolation(
            m.trace->instrs[v.consumer].img());
    }
    squashFromTask(m, m.taskPosOf(v.consumer));
}

void
squashFromTask(MachineState &m, size_t taskPos)
{
    for (size_t pos = taskPos; pos < m.tasks.size(); ++pos) {
        Task &t = m.tasks[pos];
        // Only fetch moves a position off None, and it never runs
        // past fetchIdx; a spawn splits a task's tail off at or
        // beyond fetchIdx. So [fetchIdx, end) is still untouched.
        std::fill(m.istate.begin() + t.begin,
                  m.istate.begin() + t.fetchIdx, InstrState{});
        m.robUsed -= t.robHeld;
        t.robHeld = 0;
        t.fetchIdx = t.dispIdx = t.begin;
        if (m.events) {
            m.events->push_back({TaskEvent::Kind::Squash, m.now,
                                 t.begin, t.end, t.triggerPc,
                                 m.commitIdx, t.divertedCount});
        }
        t.divertedCount = 0;
        t.fetchReady = m.now + squashRestartPenalty;
        t.lastFetchStall = FetchStall::Squash;
        t.blockedOnBranch = invalidTrace;
        t.curFetchLine = invalidAddr;
        ++m.res.tasksSquashed;
        if (m.cfg.spawnFeedback && t.triggerPc != invalidAddr) {
            TriggerFeedback &fb = m.feedbackOf(t);
            ++fb.squashes;
            if (fb.squashes >= minSquashesToDisable &&
                fb.squashes * 4 >= fb.spawns && !fb.disabled) {
                fb.disabled = true;
                ++m.res.triggersDisabled;
            }
        }
    }
    // Purge the squashed entries from both queues, their waiter
    // lists and the wheel now, so capacity frees immediately and no
    // stage or wakeup ever meets a squashed entry.
    m.purgeSquashed();
}

} // namespace polyflow::sim
