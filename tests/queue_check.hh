/**
 * @file
 * Seeding, inspection and invariant checks for the scheduler and the
 * divert queue of a sim::MachineState, and a cycle loop that checks
 * them every cycle, shared by the stage tests and the fuzz tests.
 * Header-only; test code only.
 */

#ifndef POLYFLOW_TESTS_QUEUE_CHECK_HH
#define POLYFLOW_TESTS_QUEUE_CHECK_HH

#include <algorithm>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "sim/machine_state.hh"
#include "sim/stages.hh"

namespace polyflow::qtest {

/** Put @p idxs in the scheduler as ready entries, in InSched, for
 *  issue to check on its next scan. */
inline void
seedSched(sim::MachineState &m, std::initializer_list<TraceIdx> idxs)
{
    for (TraceIdx i : idxs)
        m.enterSched(i, invalidTrace);
}

/** The divert queue's entries in FIFO order, ready and parked
 *  alike. */
inline std::vector<sim::DivertEntry>
divertEntries(const sim::MachineState &m)
{
    std::vector<sim::DivertEntry> out;
    for (const sim::DivertEntry &e : m.divert.slots) {
        if (e.idx != invalidTrace)
            out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.seq < b.seq; });
    return out;
}

/** The scheduler's entries oldest first, ready and parked alike. */
inline std::vector<sim::SchedEntry>
schedEntries(const sim::MachineState &m)
{
    std::vector<sim::SchedEntry> out;
    for (const sim::SchedEntry &e : m.sched.slots) {
        if (e.idx != invalidTrace)
            out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.idx < b.idx; });
    return out;
}

/** Trace index of the entry in queue node @p n; invalidTrace for a
 *  free slot. */
inline TraceIdx
nodeInstr(const sim::MachineState &m, sim::Slot n)
{
    const size_t schedSlots = m.sched.slots.size();
    return n < schedSlots ? m.sched.slots[n].idx
                          : m.divert.slots[n - schedSlots].idx;
}

/** Where queue node @p n sits: how many times it is on a ready list,
 *  a producer's waiter list or a wheel bucket. */
struct NodePlaces
{
    int ready = 0;
    int waiterLists = 0;
    int wheel = 0;
};

/**
 * Check the queues' bookkeeping against istate. Returns an empty
 * string if it holds, else the first violation found:
 *  - each queue's occupancy equals the number of instructions in its
 *    stage (InSched, Diverted), and no two slots hold one
 *    instruction;
 *  - each entry is on exactly one of its queue's ready list, its
 *    blocker's waiter list, or the wheel bucket of its blocker's
 *    completion cycle, and no free slot is on any;
 *  - a parked entry's blocker still holds it (a wheel entry's
 *    result is due after the last drained cycle), and a ready entry
 *    is not held;
 *  - each ready list's prefix that its last scan left is in scan
 *    order.
 */
inline std::string
queueInvariantViolation(const sim::MachineState &m)
{
    using sim::InstrStage;
    const size_t schedSlots = m.sched.slots.size();
    const size_t nodes = m.waiterNext.size();
    if (nodes != schedSlots + m.divert.slots.size())
        return "waiterNext has " + std::to_string(nodes) + " links";

    int inSched = 0, diverted = 0;
    for (const sim::InstrState &s : m.istate) {
        inSched += s.stage == InstrStage::InSched;
        diverted += s.stage == InstrStage::Diverted;
    }
    if (m.sched.size() != inSched) {
        return "scheduler occupancy " + std::to_string(m.sched.size()) +
            " != " + std::to_string(inSched) + " InSched";
    }
    if (m.divert.size() != diverted) {
        return "divert occupancy " + std::to_string(m.divert.size()) +
            " != " + std::to_string(diverted) + " Diverted";
    }

    std::set<TraceIdx> seen;
    std::set<TraceIdx> producers;
    for (sim::Slot n = 0; n < nodes; ++n) {
        const TraceIdx i = nodeInstr(m, n);
        if (i == invalidTrace)
            continue;
        const InstrStage want =
            n < schedSlots ? InstrStage::InSched : InstrStage::Diverted;
        if (m.istate[i].stage != want)
            return "node " + std::to_string(n) + " holds instr " +
                std::to_string(i) + " in the wrong stage";
        if (!seen.insert(i).second)
            return "instr " + std::to_string(i) + " is in two slots";
        if (const TraceIdx p = m.blockerOf(n).producer; p != invalidTrace)
            producers.insert(p);
    }

    std::vector<NodePlaces> places(nodes);
    auto onList = [&](sim::Slot head, auto &&visit) -> std::string {
        size_t steps = 0;
        for (sim::Slot n = head; n != sim::noSlot; n = m.waiterNext[n]) {
            if (n >= nodes || ++steps > nodes)
                return "a waiter list is corrupt or cyclic";
            if (nodeInstr(m, n) == invalidTrace)
                return "free node " + std::to_string(n) + " is listed";
            if (std::string bad = visit(n); !bad.empty())
                return bad;
        }
        return {};
    };
    for (TraceIdx p : producers) {
        std::string bad = onList(m.waiterHead[p], [&](sim::Slot n) {
            ++places[n].waiterLists;
            const sim::Blocker b = m.blockerOf(n);
            if (b.producer != p)
                return "node " + std::to_string(n) +
                    " waits on the wrong producer";
            if (!m.holds(b))
                return "node " + std::to_string(n) +
                    " is parked but not held";
            if (b.until == sim::Await::Result &&
                m.istate[p].stage == InstrStage::Issued)
                return "node " + std::to_string(n) +
                    " waits on an issued producer's list";
            return std::string();
        });
        if (!bad.empty())
            return bad;
    }
    const std::uint64_t mask = m.wheel.size() - 1;
    for (size_t k = 0; k < m.wheel.size(); ++k) {
        std::string bad = onList(m.wheel[k], [&](sim::Slot n) {
            ++places[n].wheel;
            const sim::Blocker b = m.blockerOf(n);
            const sim::InstrState &s = m.istate[b.producer];
            if (b.until != sim::Await::Result ||
                s.stage != InstrStage::Issued ||
                (s.cycle & mask) != k || s.cycle <= m.wheelDrained)
                return "node " + std::to_string(n) +
                    " is in the wrong wheel bucket";
            return std::string();
        });
        if (!bad.empty())
            return bad;
    }
    for (const auto &r : m.sched.ready) {
        const sim::Slot s = r.slot;
        ++places[s].ready;
        if (r.key != m.sched.slots[s].order())
            return "ready scheduler node " + std::to_string(s) +
                " has a stale key";
        const TraceIdx w = m.sched.slots[s].waitOn;
        if (w != invalidTrace && !m.doneAt(w, m.now))
            return "ready scheduler node " + std::to_string(s) +
                " lacks its result";
    }
    for (const auto &r : m.divert.ready) {
        const sim::Slot d = r.slot;
        ++places[m.divertNode(d)].ready;
        if (r.key != m.divert.slots[d].order())
            return "ready divert node " + std::to_string(d) +
                " has a stale key";
        if (m.holds(m.divert.slots[d].heldBy))
            return "ready divert node " + std::to_string(d) +
                " is still held";
    }
    auto scanOrdered = [](const auto &q, const char *name) -> std::string {
        if (q.sorted > q.ready.size())
            return std::string(name) + " ready list is shorter than " +
                "its scanned prefix";
        for (size_t k = 1; k < q.sorted; ++k) {
            if (q.ready[k - 1].key >= q.ready[k].key)
                return std::string(name) +
                    " ready list's scanned prefix is out of order";
        }
        return {};
    };
    for (const std::string &bad : {scanOrdered(m.sched, "scheduler"),
                                   scanOrdered(m.divert, "divert")}) {
        if (!bad.empty())
            return bad;
    }
    for (sim::Slot n = 0; n < nodes; ++n) {
        const NodePlaces &p = places[n];
        const int total = p.ready + p.waiterLists + p.wheel;
        if (nodeInstr(m, n) == invalidTrace ? total != 0 : total != 1) {
            return "node " + std::to_string(n) + " (instr " +
                std::to_string(nodeInstr(m, n)) + ") is on " +
                std::to_string(p.ready) + " ready, " +
                std::to_string(p.waiterLists) + " waiter and " +
                std::to_string(p.wheel) + " wheel lists";
        }
    }
    return {};
}

/**
 * Check that every position in [fetchIdx, end) of every task is as
 * the MachineState constructor left it. squashFromTask resets only
 * [begin, fetchIdx) of each squashed task, which is exact only while
 * this holds. Returns an empty string if it holds.
 */
inline std::string
fetchWindowViolation(const sim::MachineState &m)
{
    for (const sim::Task &t : m.tasks) {
        for (TraceIdx i = t.fetchIdx; i < t.end; ++i) {
            const sim::InstrState &s = m.istate[i];
            if (s.stage != sim::InstrStage::None || s.cycle != 0)
                return "position " + std::to_string(i) +
                    " past its task's fetch index was touched";
        }
    }
    return {};
}

/**
 * Run @p m cycle by cycle through sim::step, the loop runTiming
 * runs, until its last commit, checking queueInvariantViolation and
 * fetchWindowViolation after every cycle. Returns the first
 * violation, or a note that the run passed @p maxCycles; empty if it
 * finished clean, with the cycle count in m.now, as runTiming reports
 * it.
 */
inline std::string
runCheckingQueues(sim::MachineState &m, std::uint64_t maxCycles)
{
    while (sim::step(m)) {
        for (const std::string &bad :
             {queueInvariantViolation(m), fetchWindowViolation(m)}) {
            if (!bad.empty())
                return "cycle " + std::to_string(m.now) + ": " + bad;
        }
        if (m.now > maxCycles)
            return "no last commit by cycle " + std::to_string(maxCycles);
    }
    return {};
}

} // namespace polyflow::qtest

#endif // POLYFLOW_TESTS_QUEUE_CHECK_HH
