#include "sim/stages.hh"

namespace polyflow::sim {

namespace {

/**
 * Wakeup/select/execute for one scheduler entry: check operand and
 * memory-ordering readiness, then execute on a FU, recording any
 * dependence violations for the recovery stage. @p t is the task
 * owning the entry. Returns true if the entry issued — the caller
 * frees its scheduler slot and spends one FU. Otherwise the entry's
 * waitOn names the first synchronized producer whose result it
 * lacks.
 */
bool
tryIssue(MachineState &m, SchedEntry &e, const Task &t)
{
    const TraceIdx i = e.idx;
    InstrState &s = m.istate[i];
    const DynInstr &d = m.trace->instrs[i];
    const LinkedInstr &li = m.staticOf(i);

    // Register operands: synchronized producers must be
    // complete; an unsynchronized (unpredicted) cross-task
    // producer lets the consumer issue with a stale value,
    // which is a dependence violation.
    e.waitOn = invalidTrace;
    bool staleRegRead = false;
    RegId srcs[2];
    int nsrc = li.instr.srcRegs(srcs);
    for (int k = 0; k < nsrc; ++k) {
        TraceIdx p = d.prod[k];
        if (p == invalidTrace || m.doneAt(p, m.now))
            continue;
        if (m.regSyncNeeded(p, srcs[k], d, t)) {
            if (e.waitOn == invalidTrace)
                e.waitOn = p;
        } else {
            staleRegRead = true;
        }
    }

    // Memory ordering for loads.
    bool speculativeLoad = false;
    if (e.waitOn == invalidTrace && li.instr.isLoad() &&
        d.memProd != invalidTrace &&
        m.istate[d.memProd].stage != InstrStage::Committed) {
        if (m.loadSyncNeeded(i, d, t)) {
            if (!m.doneAt(d.memProd, m.now))
                e.waitOn = d.memProd;
        } else if (!m.doneAt(d.memProd, m.now)) {
            // Unsynchronized cross-task load issuing before the
            // conflicting store has produced its data.
            speculativeLoad = true;
        }
    }

    if (e.waitOn != invalidTrace)
        return false;
    if (staleRegRead)
        m.pendingViolations.push_back({i, invalidTrace});

    // Issue.
    s.stage = InstrStage::Issued;
    if (li.instr.isLoad()) {
        int lat = m.hier.accessData(d.effAddr);
        s.completeCycle = static_cast<std::uint32_t>(
            m.now + m.cfg.loadLatency + (lat - 1));
    } else if (li.instr.isStore()) {
        m.hier.accessData(d.effAddr);
        s.completeCycle = static_cast<std::uint32_t>(m.now + 1);
        // A store executing after dependent cross-task loads
        // have already issued is a dependence violation.
        if (m.index) {
            for (TraceIdx l : m.index->consumersOf(i)) {
                if (m.istate[l].stage == InstrStage::Issued &&
                    l >= t.end) {
                    m.pendingViolations.push_back({l, i});
                }
            }
        }
    } else {
        s.completeCycle =
            static_cast<std::uint32_t>(m.now + m.execLatency(li));
    }
    if (speculativeLoad &&
        m.istate[d.memProd].stage == InstrStage::Issued &&
        m.istate[d.memProd].completeCycle > m.now) {
        // Load read stale data while the store is in flight.
        m.pendingViolations.push_back({i, d.memProd});
    }
    return true;
}

} // namespace

void
releaseDiverted(MachineState &m)
{
    if (m.divert.empty())
        return;
    int budget = m.cfg.pipelineWidth;
    // Compact in place: held entries move down to the write index
    // w, in FIFO order.
    std::vector<DivertEntry> &q = m.divert;
    size_t w = 0;
    size_t j = 0;
    for (; j < q.size() && budget > 0; ++j) {
        DivertEntry e = q[j];
        TraceIdx i = e.idx;
        // Wakeup: while the producer that last held the entry has
        // not advanced, the full rule would hold it too, so skip
        // the rule. This is exact because a sync decision never
        // reverts: DepPredictors only ever sets bits, Task::begin
        // and Task::depMask are fixed for a task's life, and a
        // producer's stage only moves forward. The one exception, a
        // squash, also squashes this consumer, and recover() purges
        // the entry.
        if (m.holds(e.heldBy)) {
            q[w++] = e;
            continue;
        }
        const Task &t = m.tasks[m.taskPosOf(i)];
        if (Blocker b = m.divertBlocker(i, m.trace->instrs[i], t)) {
            e.heldBy = b;  // a newer producer holds it
            q[w++] = e;
            continue;
        }
        if (e.heldBy) {
            // Let go this cycle: the re-dispatch latency starts.
            e.heldBy = {};
            e.readyAt = m.now + m.cfg.divertReleaseDelay;
        }
        if (m.now >= e.readyAt &&
            static_cast<int>(m.sched.size()) <
                m.cfg.schedEntries) {
            m.istate[i].stage = InstrStage::InSched;
            m.sched.push_back({i});
            --budget;
        } else {
            q[w++] = e;
        }
    }
    // Budget exhausted: the unexamined tail stays verbatim, in FIFO
    // order, behind the held entries.
    q.erase(q.begin() + w, q.begin() + j);
}

void
issue(MachineState &m)
{
    if (m.sched.empty())
        return;
    // Repair oldest-first order: survivors of the previous scan are
    // already sorted, and rename/divert-release appended short
    // ascending runs behind them, so an adaptive insertion pass
    // restores full order in ~n comparisons — no per-cycle sort.
    std::vector<SchedEntry> &q = m.sched;
    for (size_t j = 1; j < q.size(); ++j) {
        SchedEntry v = q[j];
        size_t k = j;
        for (; k > 0 && q[k - 1].idx > v.idx; --k)
            q[k] = q[k - 1];
        q[k] = v;
    }

    int fu = m.cfg.numFUs;
    // Compact in place, as releaseDiverted() does.
    size_t w = 0;
    // Ascending age keys let the owning task be resolved by walking
    // the (begin-sorted) task table in lockstep instead of a binary
    // search per entry. The tasks tile [commitIdx, N), so the walk
    // always stops at the owner.
    size_t cursor = 0;
    size_t j = 0;
    for (; j < q.size() && fu > 0; ++j) {
        SchedEntry e = q[j];
        // Wakeup: the entry cannot issue before the producer it last
        // waited on has its result, for the reasons given at the
        // skip in releaseDiverted(); skip the rule until then.
        if (e.waitOn != invalidTrace && !m.doneAt(e.waitOn, m.now)) {
            q[w++] = e;
            continue;
        }
        while (m.tasks[cursor].end <= e.idx)
            ++cursor;
        if (tryIssue(m, e, m.tasks[cursor]))
            --fu;
        else
            q[w++] = e;
    }
    q.erase(q.begin() + w, q.begin() + j);
}

} // namespace polyflow::sim
