/**
 * @file
 * polyflow::Session — the front door of the library.
 *
 * A Session is a handle on one (workload, scale) pair that wires the
 * whole trace → analyze → simulate pipeline behind accessors, so
 * callers stop hand-wiring runFunctional → TraceIndex →
 * SpawnAnalysis → HintTable → runTiming:
 *
 *     Session s = Session::open("twolf", 0.25);
 *     const Trace &t = s.trace();                  // traced once
 *     TimingResult base = s.simulate(driver::runTable().superscalar);
 *     TimingResult pf = s.simulate(*driver::runByLabel("postdoms"));
 *
 * Every artifact a Session hands out comes from a SweepCache — built
 * at most once per cache and shared read-only. Sessions are cheap
 * value objects: opening several against one shared cache (e.g.
 * SweepRunner::cacheHandle()) shares every artifact, and the
 * runner's persistent store if PF_CACHE_DIR named one; opening with
 * no explicit cache creates a private, in-memory one.
 */

#ifndef POLYFLOW_DRIVER_SESSION_HH
#define POLYFLOW_DRIVER_SESSION_HH

#include <memory>
#include <string>
#include <vector>

#include "driver/grid.hh"
#include "driver/sweep.hh"

namespace polyflow {

/** Per-run knobs for Session::simulate(). */
struct RunOptions
{
    /** Collect task lifecycle events of the run. */
    std::vector<TaskEvent> *events = nullptr;
    /**
     * Receives the run's spawn source, so dynamic sources (the
     * reconvergence predictor, DMT heuristics) stay inspectable
     * after training. Set to nullptr for baseline runs.
     */
    std::shared_ptr<SpawnSource> *sourceOut = nullptr;
};

class Session
{
  public:
    /** Nested spelling kept so call sites read
     *  Session::RunOptions. */
    using RunOptions = polyflow::RunOptions;

    /**
     * Open a session on a registered workload (see
     * workloads/workloads.hh), with a private in-memory cache.
     */
    static Session open(const std::string &name, double scale = 1.0);

    /** Open against an existing shared cache (and its store, if
     *  one is attached). */
    static Session open(const std::string &name, double scale,
                        std::shared_ptr<driver::SweepCache> cache);

    /**
     * Wrap a program that is not a registered workload (e.g. one
     * built with FunctionBuilder, as examples/quickstart.cc does) in
     * a session with a private in-memory cache, keyed by the
     * workload's name and @p scale.
     */
    static Session adopt(Workload workload, double scale = 1.0);

    /** @name Identity @{ */
    const std::string &name() const { return _name; }
    double scale() const { return _scale; }
    /** @} */

    /** @name Pipeline artifacts (each built/loaded at most once) @{ */
    const Workload &workload() const;
    const LinkedProgram &program() const;
    const Module &module() const;
    /** Committed trace from the functional golden model. */
    const Trace &trace() const;
    /** Whole-module spawn analysis. */
    const SpawnAnalysis &analysis() const;
    /** Hint table for @p policy (cached per policy kind mask). */
    std::shared_ptr<const HintTable>
    hints(const SpawnPolicy &policy) const;
    /** @} */

    /**
     * One timing simulation of @p run: its spawn source on its
     * machine, reported as TimingResult::policyName = run.label.
     * Take the run from the run table (driver::runByLabel,
     * driver::runTable()) or spell a RunSpec for a config of your
     * own.
     */
    TimingResult simulate(const driver::RunSpec &run,
                          const RunOptions &options = {});

    /** The cache backing this session (shareable across sessions). */
    const std::shared_ptr<driver::SweepCache> &cache() const
    {
        return _cache;
    }

  private:
    Session(std::string name, double scale,
            std::shared_ptr<driver::SweepCache> cache);

    std::string _name;
    double _scale;
    std::shared_ptr<driver::SweepCache> _cache;
};

} // namespace polyflow

#endif // POLYFLOW_DRIVER_SESSION_HH
