/**
 * @file
 * Rename/dispatch stage: in-order per task into the shared ROB and
 * scheduler, diverting predicted-dependent consumers into the divert
 * queue (Figure 7's rename-stage dependence predictors).
 */

#ifndef POLYFLOW_SIM_RENAME_HH
#define POLYFLOW_SIM_RENAME_HH

#include "sim/machine_state.hh"

namespace polyflow::sim {

class Rename
{
  public:
    /**
     * Rename up to pipelineWidth instructions, oldest task first.
     * A consumer the dependence predictors (or the compiler dep
     * mask) mark as synchronized enters the divert queue holding its
     * ROB entry; everything else dispatches to the scheduler. Stalls
     * on frontend depth, ROB admission (robAllowed) and full
     * divert/scheduler queues.
     */
    void step(MachineState &m);
};

} // namespace polyflow::sim

#endif // POLYFLOW_SIM_RENAME_HH
