#include "sim/stages.hh"

#include <algorithm>

namespace polyflow::sim {

void
recover(MachineState &m)
{
    if (m.pendingViolations.empty())
        return;
    // Handle the oldest violating load; everything younger gets
    // squashed anyway.
    auto v = *std::min_element(
        m.pendingViolations.begin(), m.pendingViolations.end(),
        [](const Violation &a, const Violation &b) {
            return a.consumer < b.consumer;
        });
    m.pendingViolations.clear();

    // The consumer may already have been squashed meanwhile.
    if (m.istate[v.consumer].stage == InstrStage::None)
        return;

    ++m.res.violations;
    if (v.store == invalidTrace) {
        m.depPred.recordRegViolation(
            m.trace->instrs[v.consumer].img);
    } else {
        m.depPred.recordMemViolation(
            m.trace->instrs[v.consumer].img);
    }
    squashFromTask(m, m.taskPosOf(v.consumer));
}

void
squashFromTask(MachineState &m, size_t taskPos)
{
    for (size_t pos = taskPos; pos < m.tasks.size(); ++pos) {
        Task &t = m.tasks[pos];
        for (TraceIdx i = t.begin; i < t.end; ++i) {
            if (m.istate[i].stage != InstrStage::None)
                m.istate[i] = InstrState{};
        }
        m.robUsed -= t.robHeld;
        t.robHeld = 0;
        t.fetchIdx = t.dispIdx = t.begin;
        if (m.events) {
            m.events->push_back({TaskEvent::Kind::Squash, m.now,
                                 t.begin, t.end, t.triggerPc,
                                 m.commitIdx, t.divertedCount});
        }
        t.divertedCount = 0;
        t.fetchReady = m.now + m.cfg.squashRestartPenalty;
        t.lastFetchStall = FetchStall::Squash;
        t.blockedOnBranch = invalidTrace;
        t.curFetchLine = invalidAddr;
        ++m.res.tasksSquashed;
        if (m.cfg.spawnFeedback && t.triggerPc != invalidAddr) {
            TriggerFeedback &fb = m.feedbackOf(t);
            ++fb.squashes;
            if (fb.squashes >= m.cfg.feedbackMinSquashes &&
                fb.squashes * 4 >= fb.spawns && !fb.disabled) {
                fb.disabled = true;
                ++m.res.triggersDisabled;
            }
        }
    }
    // Purge squashed entries from the structures lazily; the stage
    // check in each phase discards them. Clean the scheduler now so
    // capacity frees immediately.
    std::erase_if(m.sched, [&](const SchedEntry &e) {
        return m.istate[e.idx].stage != InstrStage::InSched;
    });
    std::erase_if(m.divert, [&](const DivertEntry &e) {
        return m.istate[e.idx].stage != InstrStage::Diverted;
    });
}

} // namespace polyflow::sim
