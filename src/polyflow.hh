/**
 * @file
 * Umbrella header: the whole public PolyFlow surface in one include.
 *
 *     #include "polyflow.hh"
 *
 *     int main() {
 *         polyflow::Session s = polyflow::Session::open("twolf");
 *         polyflow::TimingResult base =
 *             s.simulate(polyflow::driver::runTable().superscalar);
 *         polyflow::TimingResult pf =
 *             s.simulate(*polyflow::driver::runByLabel("postdoms"));
 *     }
 *
 * Session (driver/session.hh) is the front door; the rest of the
 * includes expose the types its accessors return and the run
 * (driver::RunSpec) simulate() takes. docs/API.md documents which of these names are
 * stable and which are internal.
 */

#ifndef POLYFLOW_POLYFLOW_HH
#define POLYFLOW_POLYFLOW_HH

#include "driver/grid.hh"        // the run table, Grid
#include "driver/session.hh"     // Session, RunOptions
#include "driver/sweep.hh"       // SweepRunner, SweepCache, SourceSpec
#include "ir/module.hh"          // Module, LinkedProgram
#include "isa/functional_sim.hh" // runFunctional, FunctionalResult
#include "isa/trace.hh"          // Trace, DynInstr
#include "sim/config.hh"         // MachineConfig
#include "sim/core.hh"           // runTiming, TimingSim::runBatch
#include "sim/result.hh"         // TimingResult, TaskEvent
#include "spawn/policy.hh"       // SpawnPolicy, HintTable
#include "spawn/spawn_analysis.hh" // SpawnAnalysis
#include "store/artifact_store.hh" // ArtifactStore (persistent cache)
#include "workloads/workloads.hh"  // buildWorkload, allWorkloadNames

#endif // POLYFLOW_POLYFLOW_HH
