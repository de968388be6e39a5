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
    const DecodedOp &op = m.ops[d.img()];

    // Synchronized producers must be complete.
    e.waitOn = m.syncWait(d, t, m.now);
    if (e.waitOn != invalidTrace)
        return false;
    // Any producer still incomplete is unsynchronized (unpredicted):
    // a register consumer issues with a stale value, and a cross-task
    // load issues before the conflicting store has produced its data.
    for (int k = 0; k < op.nsrc; ++k) {
        if (d.prod[k] != invalidTrace && !m.doneAt(d.prod[k], m.now)) {
            m.pendingViolations.push_back({i, invalidTrace});
            break;
        }
    }
    const bool load = op.mem == DecodedOp::Mem::Load;
    const TraceIdx store = load ? m.trace->memProd(d) : invalidTrace;
    const bool speculativeLoad =
        store != invalidTrace && !m.doneAt(store, m.now);

    // Issue.
    s.stage = InstrStage::Issued;
    if (load) {
        int lat = m.hier.accessData(m.trace->effAddr(d));
        s.completeCycle = static_cast<std::uint32_t>(
            m.now + m.cfg.loadLatency + (lat - 1));
    } else if (op.mem == DecodedOp::Mem::Store) {
        m.hier.accessData(m.trace->effAddr(d));
        s.completeCycle = static_cast<std::uint32_t>(m.now + 1);
        // A store executing after dependent cross-task loads
        // have already issued is a dependence violation.
        if (m.index) {
            for (TraceIdx l : m.index->consumersOf(d.side)) {
                if (m.istate[l].stage == InstrStage::Issued &&
                    l >= t.end) {
                    m.pendingViolations.push_back({l, i});
                }
            }
        }
    } else {
        s.completeCycle =
            static_cast<std::uint32_t>(m.now + op.latency);
    }
    m.onIssued(i);
    if (speculativeLoad && m.istate[store].stage == InstrStage::Issued &&
        m.istate[store].completeCycle > m.now) {
        // Load read stale data while the store is in flight.
        m.pendingViolations.push_back({i, store});
    }
    return true;
}

/**
 * Insertion-sort q[from, end) by key into q[lo, from), which is
 * sorted. Adaptive: entries that arrive in order cost one compare.
 */
template <class Ready>
void
insertSorted(std::vector<Ready> &q, size_t lo, size_t from)
{
    for (size_t j = from; j < q.size(); ++j) {
        const Ready v = q[j];
        size_t k = j;
        for (; k > lo && q[k - 1].key > v.key; --k)
            q[k] = q[k - 1];
        q[k] = v;
    }
}

} // namespace

void
releaseDiverted(MachineState &m)
{
    m.wakeDue();
    auto &q = m.divert.ready;
    if (q.empty())
        return;
    // FIFO order: the survivors of the last scan are sorted, and the
    // entries woken since were appended behind them.
    insertSorted(q, 0, 1);

    int budget = m.cfg.pipelineWidth;
    // Compact in place: entries that stay ready move down to the
    // write index w, in FIFO order.
    size_t w = 0;
    size_t j = 0;
    for (; j < q.size() && budget > 0; ++j) {
        const Slot slot = q[j].slot;
        DivertEntry &e = m.divert.slots[slot];
        const TraceIdx i = e.idx;
        // Every ready entry's last blocker has let go (or it had
        // none), so the full rule runs; it may find a newer one.
        // The rule is exact to skip while parked: a sync decision
        // never reverts (DepPredictors only ever sets bits,
        // Task::begin and Task::depMask are fixed for a task's
        // life), and a producer's stage only moves forward except
        // under a squash, which also squashes and purges this entry.
        const Task &t = m.tasks[m.taskPosOf(i)];
        if (Blocker b = m.divertBlocker(m.trace->instrs[i], t)) {
            e.heldBy = b;
            m.park(m.divertNode(slot));
            continue;
        }
        if (e.heldBy) {
            // Let go this cycle: the re-dispatch latency starts.
            e.heldBy = {};
            e.readyAt = m.now + m.cfg.divertReleaseDelay;
        }
        if (m.now >= e.readyAt && m.sched.size() < m.cfg.schedEntries) {
            m.divert.release(slot);
            // Its first issue check is later this cycle. Entering the
            // scheduler wakes the same-task consumers waiting for i
            // to be renamed. They were diverted after i, so they sort
            // behind it and this scan reaches them.
            const size_t woken = q.size();
            m.enterSched(i, m.syncWait(m.trace->instrs[i], t, m.now));
            insertSorted(q, j + 1, woken);
            --budget;
        } else {
            q[w++] = q[j];
        }
    }
    // Budget exhausted: the unexamined tail stays, in FIFO order,
    // behind the entries that stayed ready.
    q.erase(q.begin() + w, q.begin() + j);
}

void
issue(MachineState &m)
{
    m.wakeDue();
    auto &q = m.sched.ready;
    if (q.empty())
        return;
    // Oldest first: the survivors of the last scan are sorted, and
    // rename, divert release and wakeups appended short runs behind
    // them.
    insertSorted(q, 0, 1);

    int fu = m.cfg.numFUs;
    // Ascending age keys let the owning task be resolved by walking
    // the (begin-sorted) task table in lockstep instead of a binary
    // search per entry. The tasks tile [commitIdx, N), so the walk
    // always stops at the owner.
    size_t cursor = 0;
    size_t j = 0;
    for (; j < q.size() && fu > 0; ++j) {
        const Slot slot = q[j].slot;
        SchedEntry &e = m.sched.slots[slot];
        while (m.tasks[cursor].end <= e.idx)
            ++cursor;
        const size_t woken = q.size();
        if (tryIssue(m, e, m.tasks[cursor])) {
            --fu;
            m.sched.release(slot);
            // A result ready in the cycle it issues wakes its
            // consumers into this scan; they are younger.
            insertSorted(q, j + 1, woken);
        } else {
            m.park(slot);  // on e.waitOn
        }
    }
    // Every examined entry issued or parked.
    q.erase(q.begin(), q.begin() + j);
}

} // namespace polyflow::sim
