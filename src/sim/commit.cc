#include "sim/stages.hh"

namespace polyflow::sim {

namespace {

/** A retired task counts as unprofitable when at least this fraction
 *  (in percent) of its instructions had to be synchronized through
 *  the divert queue. */
constexpr int unprofitableDivertPercent = 60;
/** Triggers are disabled once unprofitable retirements both reach
 *  this count and outnumber profitable ones 2:1. */
constexpr int minUnprofitableToDisable = 12;

void
retireHead(MachineState &m)
{
    ++m.res.tasksRetired;
    const Task &t = m.tasks.front();
    if (m.events) {
        m.events->push_back({TaskEvent::Kind::Retire, m.now,
                             t.begin, t.end, t.triggerPc,
                             m.commitIdx, t.divertedCount});
    }
    // Profitability feedback (paper Section 3.1): a task most of
    // whose instructions had to synchronize on older tasks added
    // overhead without overlap; stop spawning from triggers that
    // keep producing such tasks.
    if (m.cfg.spawnFeedback && t.triggerPc != invalidAddr) {
        TriggerFeedback &fb = m.feedbackOf(t);
        std::uint64_t size = t.end - t.begin;
        if (t.divertedCount * 100 >=
            size * std::uint64_t(unprofitableDivertPercent)) {
            ++fb.unprofitable;
        } else {
            ++fb.profitable;
        }
        if (fb.unprofitable >= minUnprofitableToDisable &&
            fb.unprofitable >= 2 * fb.profitable && !fb.disabled) {
            fb.disabled = true;
            ++m.res.triggersDisabled;
        }
    }
    m.tasks.erase(m.tasks.begin());
}

} // namespace

void
commit(MachineState &m)
{
    int n = 0;
    while (n < m.cfg.pipelineWidth &&
           m.commitIdx < m.trace->size()) {
        if (!m.doneAt(m.commitIdx, m.now))
            break;
        m.istate[m.commitIdx].stage = InstrStage::Committed;
        if (m.sourceTrains) {
            m.source->onCommit(m.staticOf(m.commitIdx),
                               m.trace->instrs[m.commitIdx].taken());
        }
        Task &head = m.tasks.front();
        --head.robHeld;
        --m.robUsed;
        ++m.commitIdx;
        ++n;
        if (m.commitIdx == head.end)
            retireHead(m);
    }
    m.cycleCommits = n;
}

} // namespace polyflow::sim
