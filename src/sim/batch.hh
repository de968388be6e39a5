/**
 * @file
 * MachineBatch: the simulation engine, and the only cycle loop of
 * the timing model.
 *
 * A batch owns N MachineStates built from one MachineConfig and N
 * independent traces and steps them in a *stage-major* loop: per
 * cycle, the commit stage runs over every live machine, then
 * accounting over every machine, then the backend, rename, frontend
 * and recovery — instead of one machine running all its stages
 * before the next machine gets a turn. One pass of each stage's code
 * per cycle keeps that stage's instructions, lookup tables and
 * scratch buffers (backend.hh, frontend.hh) hot across machines.
 * TimingSim::run is a batch of one.
 *
 * Machines are fully independent — no state is shared between them
 * except the borrowed read-only trace/index inputs — so a machine's
 * result does not depend on the batch width (tests/test_stages.cc
 * pins sha256 goldens at widths 1, 3 and 8). A machine that commits
 * its last instruction drops out of the live set at the top of the
 * cycle without disturbing the others; one that passes its cycle
 * limit (200 x trace length + 1M) throws std::runtime_error naming
 * the machine and dumping its pipeline and task table.
 *
 * Most callers want the higher-level entry points instead:
 * TimingSim::runBatch (core.hh) over prepared inputs, or
 * SweepRunner, which routes sweep cells sharing a (workload, scale,
 * config) triple through a batch per worker thread (jobs x batch
 * width), keeping each batch on one shared read-only trace.
 */

#ifndef POLYFLOW_SIM_BATCH_HH
#define POLYFLOW_SIM_BATCH_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/backend.hh"
#include "sim/commit.hh"
#include "sim/core.hh"
#include "sim/frontend.hh"
#include "sim/machine_state.hh"
#include "sim/recovery.hh"
#include "sim/rename.hh"

namespace polyflow::sim {

/**
 * N independent machines under one config, stepped stage-major.
 * Construct, add() every machine, then call run() exactly once.
 * Not thread-safe; use one MachineBatch per worker thread.
 */
class MachineBatch
{
  public:
    explicit MachineBatch(const MachineConfig &config);
    ~MachineBatch();

    /**
     * Add one machine. @p trace and @p index are borrowed read-only
     * and must outlive the batch; @p source trains and must be
     * private to this machine. Returns the machine's index (results
     * come back in add order).
     */
    size_t add(const Trace &trace, SpawnSource *source,
               const TraceIndex *index, std::string label,
               std::vector<TaskEvent> *events = nullptr);

    size_t size() const { return _machines.size(); }

    /** Accumulate per-stage wall time across the whole batch into
     *  @p sink (optional; call before run()). */
    void profileStages(StageProfile *sink) { _profile = sink; }

    /**
     * Step every machine to completion and return the statistics in
     * add order. Each machine's result is what a batch of one over
     * the same inputs would give.
     */
    std::vector<TimingResult> run();

  private:
    MachineConfig _cfg;
    /** unique_ptr for address stability across add() calls (the
     *  live set points at the states). */
    std::vector<std::unique_ptr<MachineState>> _machines;

    Frontend _frontend;
    Rename _rename;
    Backend _backend;
    Commit _commit;
    Recovery _recovery;

    StageProfile *_profile = nullptr;
    bool _ran = false;
};

} // namespace polyflow::sim

#endif // POLYFLOW_SIM_BATCH_HH
