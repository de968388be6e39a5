/**
 * @file
 * Frontend stage: SMT fetch (biased ICount over up to
 * fetchTasksPerCycle tasks), branch prediction, and the Task Spawn
 * Unit (spawn decisions at fetch, applied end-of-cycle).
 */

#ifndef POLYFLOW_SIM_FRONTEND_HH
#define POLYFLOW_SIM_FRONTEND_HH

#include <vector>

#include "sim/machine_state.hh"

namespace polyflow::sim {

class Frontend
{
  public:
    /**
     * One fetch cycle: pick eligible tasks by biased ICount, fetch
     * up to pipelineWidth instructions across them, consult the
     * branch predictors (a mispredict blocks that task's fetch until
     * resolution), and let the spawn unit observe every fetched
     * instruction. A spawn decision truncates the parent immediately
     * but the context allocation is deferred to applySpawn().
     */
    void fetch(MachineState &m);

    /**
     * Apply the cycle's pending spawn, if any: allocate the new task
     * context right after its parent. Deferred so task positions
     * stay stable while fetch() iterates.
     */
    void applySpawn(MachineState &m);

  private:
    void maybeSpawn(MachineState &m, Task &t, TraceIdx i,
                    const LinkedInstr &li);

    /** Eligible-task scratch of fetch(), reused across cycles
     *  instead of allocated per call. */
    std::vector<size_t> _eligible;
};

} // namespace polyflow::sim

#endif // POLYFLOW_SIM_FRONTEND_HH
