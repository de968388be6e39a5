/**
 * @file
 * Backend stage: divert-queue release, scheduler wakeup/select,
 * functional units and the data-side memory hierarchy. Detects
 * cross-task dependence violations at issue and queues them for the
 * recovery stage.
 *
 * The scheduler is MachineState::sched, a plain vector of age keys
 * (trace indexes). Issue repairs its oldest-first order with an
 * adaptive insertion pass instead of sorting, drops issued and
 * squashed entries by single-pass compaction instead of mid-vector
 * erases, and resolves each entry's owning task by walking the task
 * table in lockstep with the ascending keys instead of
 * binary-searching per entry. Divert release compacts its FIFO the
 * same way, reusing its survivor buffers across cycles.
 */

#ifndef POLYFLOW_SIM_BACKEND_HH
#define POLYFLOW_SIM_BACKEND_HH

#include <vector>

#include "sim/machine_state.hh"

namespace polyflow::sim {

class Backend
{
  public:
    /**
     * Re-dispatch diverted instructions whose wake-up condition
     * holds (producer renamed/issued), modelling the FIFO
     * re-dispatch latency, into the scheduler.
     */
    void releaseDiverted(MachineState &m);

    /**
     * Issue ready scheduler entries to the FUs, oldest first.
     * Unsynchronized cross-task consumers may issue with a stale
     * value — those, and stores that execute after dependent
     * cross-task loads already issued, queue dependence violations
     * for the recovery stage.
     */
    void issue(MachineState &m);

  private:
    /** Survivor buffers for the compaction passes, reused across
     *  cycles. */
    std::vector<TraceIdx> _schedKeep;
    std::vector<DivertEntry> _divertKeep;
};

} // namespace polyflow::sim

#endif // POLYFLOW_SIM_BACKEND_HH
