#include "sim/stages.hh"

namespace polyflow::sim {

namespace {

/** Map a task's recorded fetch stall to its bucket. */
SlotBucket
stallBucket(const Task &t)
{
    switch (t.lastFetchStall) {
      case FetchStall::Mispredict:
        return SlotBucket::FetchMispredict;
      case FetchStall::ICache:
        return SlotBucket::FetchICache;
      case FetchStall::Squash:
        return SlotBucket::SquashRefetch;
      case FetchStall::None:
      case FetchStall::SpawnStartup:
        break;
    }
    return SlotBucket::NoTask;
}

/** Why the oldest uncommitted instruction did not commit. */
SlotBucket
blameBucket(const MachineState &m)
{
    // Head-of-ROB blame: whatever keeps the oldest uncommitted
    // instruction from committing owns every empty slot this cycle.
    TraceIdx i = m.commitIdx;
    const InstrState &s = m.istate[i];
    const Task &t = m.tasks.front();
    switch (s.stage) {
      case InstrStage::Issued:
      case InstrStage::InSched:
        // In the backend, waiting on operands or exec/memory
        // latency.
        return SlotBucket::Drain;
      case InstrStage::Diverted:
        return SlotBucket::DivertWait;
      case InstrStage::Fetched: {
        // In the fetch queue, rename stalled: ask what the rename
        // stage asks of the head task (position 0).
        if (m.inFrontend(i)) {
            // Frontend refill after a redirect/stall is part of
            // that stall's cost.
            return stallBucket(t);
        }
        if (!m.robAllowed(0))
            return SlotBucket::RobFull;
        const Readiness r = m.readiness(i, t, m.now);
        if (m.roomFor(r)) {
            // Rename can take it now: what stalled it last cycle
            // has cleared. Transient, uncommon.
            return SlotBucket::NoTask;
        }
        return r.blocker ? SlotBucket::DivertWait
                         : SlotBucket::SchedulerFull;
      }
      case InstrStage::None:
        // Not even fetched yet, so the head task's fetch queue is
        // empty and only a stall keeps fetch from serving it.
        if (t.blockedOnBranch != invalidTrace)
            return SlotBucket::FetchMispredict;
        if (!m.canFetch(t))
            return stallBucket(t);
        // Fetch bandwidth went to other tasks, or cold start.
        return SlotBucket::NoTask;
      case InstrStage::Committed:
        break;  // unreachable: i is the oldest *uncommitted* instr
    }
    return SlotBucket::NoTask;
}

} // namespace

void
accountCycle(MachineState &m)
{
    m.res.slots[static_cast<int>(SlotBucket::Committed)] +=
        std::uint64_t(m.cycleCommits);
    int empty = m.cfg.pipelineWidth - m.cycleCommits;
    if (empty > 0)
        m.res.slots[static_cast<int>(blameBucket(m))] +=
            std::uint64_t(empty);
}

} // namespace polyflow::sim
