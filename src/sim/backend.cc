#include "sim/stages.hh"

namespace polyflow::sim {

namespace {

/**
 * Select/execute for one scheduler entry owned by task @p t: issue
 * it to a FU unless it lacks a synchronized result
 * (MachineState::readiness), recording any dependence violations
 * for the recovery stage. Returns true if the entry issued — the
 * caller frees its scheduler slot and spends one FU. Otherwise the
 * entry's waitOn names the first synchronized producer whose result
 * it lacks.
 */
bool
tryIssue(MachineState &m, SchedEntry &e, const Task &t)
{
    const TraceIdx i = e.idx;
    const Readiness r = m.readiness(i, t, m.now);
    e.waitOn = r.wait;
    if (r.wait != invalidTrace)
        return false;
    if (r.staleRead)
        m.pendingViolations.push_back({i, invalidTrace});

    InstrState &s = m.istate[i];
    const DecodedOp &op = m.ops[m.trace->instrs[i].img()];
    s.stage = InstrStage::Issued;
    if (op.cls == OpClass::Load) {
        int lat = m.hier.accessData(m.trace->effAddr(i));
        s.cycle = static_cast<std::uint32_t>(
            m.now + m.cfg.loadLatency + (lat - 1));
    } else if (op.cls == OpClass::Store) {
        m.hier.accessData(m.trace->effAddr(i));
        s.cycle = static_cast<std::uint32_t>(m.now + 1);
        // A store executing after dependent cross-task loads
        // have already issued is a dependence violation.
        if (m.index) {
            for (TraceIdx l : m.index->consumersOf(m.trace->side(i))) {
                if (m.istate[l].stage == InstrStage::Issued &&
                    l >= t.end) {
                    m.pendingViolations.push_back({l, i});
                }
            }
        }
    } else {
        s.cycle = static_cast<std::uint32_t>(m.now + op.latency);
    }
    m.onIssued(i);
    if (r.inFlightStore != invalidTrace)
        m.pendingViolations.push_back({i, r.inFlightStore});
    return true;
}

} // namespace

void
releaseDiverted(MachineState &m)
{
    m.wakeDue();
    m.divert.scan(m.cfg.pipelineWidth, [&](Slot slot) {
        DivertEntry &e = m.divert.slots[slot];
        const TraceIdx i = e.idx;
        // The rule runs on every visit: a woken entry, whose last
        // blocker has let go, may meet a newer one, and a let-go
        // entry may meet one after recover() trains the predictors.
        // Task::begin and Task::depMask are fixed for a task's life,
        // and a producer's stage only moves forward except under a
        // squash, which also squashes and purges this entry. So a
        // parked entry waits on one producer. The rule asks about
        // now: an entry that leaves has its first issue check later
        // this cycle.
        const Readiness sync =
            m.readiness(i, m.tasks[m.taskPosOf(i)], m.now);
        if (sync.blocker) {
            e.heldBy = sync.blocker;
            m.park(m.divertNode(slot));
            return Step::Leave;
        }
        if (e.heldBy) {
            // Let go this cycle: the re-dispatch latency starts.
            e.heldBy = {};
            e.readyAt = m.now + m.cfg.divertReleaseDelay;
        }
        if (m.now < e.readyAt || !m.roomFor(sync))
            return Step::Stay;
        m.divert.release(slot);
        // Entering the scheduler wakes the same-task consumers
        // waiting for i to be renamed. They were diverted after i,
        // so they sort behind it and this scan reaches them.
        m.enterSched(i, sync.wait);
        return Step::Spend;
    });
}

void
issue(MachineState &m)
{
    m.wakeDue();
    // Ascending age keys let the owning task be resolved by walking
    // the (begin-sorted) task table in lockstep instead of a binary
    // search per entry. The tasks tile [commitIdx, N), so the walk
    // always stops at the owner.
    size_t cursor = 0;
    m.sched.scan(m.cfg.numFUs, [&](Slot slot) {
        SchedEntry &e = m.sched.slots[slot];
        while (m.tasks[cursor].end <= e.idx)
            ++cursor;
        if (!tryIssue(m, e, m.tasks[cursor])) {
            m.park(slot);  // on e.waitOn
            return Step::Leave;
        }
        // A result ready in the cycle it issues woke its consumers
        // into this scan; they are younger, so it reaches them.
        m.sched.release(slot);
        return Step::Spend;
    });
}

} // namespace polyflow::sim
