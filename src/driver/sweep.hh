/**
 * @file
 * The parallel sweep engine behind the figure-regeneration benches.
 *
 * Every figure is a grid of independent (workload x spawn-source x
 * machine-config) timing simulations over shared read-only inputs:
 * the committed trace, the compiler spawn analysis and the per-policy
 * hint table. SweepRunner executes the grid on a thread pool
 * (--jobs, default hardware_concurrency), one cell
 * per worker at a time and the most expensive cells first, while
 * SweepCache builds each shared input exactly once per key and hands
 * out immutable shared_ptrs. Results come back in declaration order,
 * so tables and CSVs are bit-identical to a serial run regardless of
 * the job count; wall-clock and throughput reporting goes to stderr
 * only.
 */

#ifndef POLYFLOW_DRIVER_SWEEP_HH
#define POLYFLOW_DRIVER_SWEEP_HH

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/core.hh"
#include "sim/trace_index.hh"
#include "spawn/policy.hh"
#include "spawn/spawn_analysis.hh"
#include "store/artifact_store.hh"
#include "workloads/workloads.hh"

namespace polyflow::driver {

/** A workload traced once and shared read-only across runs. */
struct TracedWorkload
{
    /** Keeps the LinkedProgram the trace points into alive. */
    std::shared_ptr<const Workload> workload;
    Trace trace;
};

/**
 * Keyed build-once caches for everything timing runs share. All
 * getters are thread-safe: concurrent requests for the same key
 * block until the single build finishes; requests for different keys
 * build in parallel.
 *
 * A cache has no persistent store unless one is attached
 * (attachStore; only SweepRunner does, from PF_CACHE_DIR). With a
 * store, the trace / analysis / hint tiers become
 * read-through/write-back: a getter first consults the store
 * (content-addressed, validated — see store/artifact_store.hh) and
 * only falls back to building and saving. The build counters count
 * real builds only; store hits leave them untouched, which is what
 * the warm-cache CI job asserts on.
 */
class SweepCache
{
  public:
    /** Attach a persistent store as the second cache tier. */
    void attachStore(std::shared_ptr<store::ArtifactStore> s)
    {
        _store = std::move(s);
    }
    const std::shared_ptr<store::ArtifactStore> &store() const
    {
        return _store;
    }

    /** Workload module + linked program, built once per
     *  (name, scale). */
    std::shared_ptr<const Workload> workload(const std::string &name,
                                             double scale);

    /**
     * Seed the workload tier with an ad-hoc program under
     * (workload.name, @p scale) — Session::adopt uses this so
     * hand-built programs ride the same pipeline tiers as
     * registered workloads. If the key is already present the
     * existing entry wins and @p w is dropped.
     */
    std::shared_ptr<const Workload> adopt(Workload w, double scale);

    /** Committed trace, one functional run per (name, scale). */
    std::shared_ptr<const TracedWorkload>
    traced(const std::string &name, double scale);

    /** Spawn-target / store-consumer indexes over the cached
     *  trace. */
    std::shared_ptr<const TraceIndex>
    traceIndex(const std::string &name, double scale);

    /** Whole-module spawn analysis, once per (name, scale). */
    std::shared_ptr<const SpawnAnalysis>
    analysis(const std::string &name, double scale);

    /** Hint table, once per (name, scale, policy kind mask). */
    std::shared_ptr<const HintTable>
    hints(const std::string &name, double scale,
          const SpawnPolicy &policy);

    /** @name Build counters (cache-behavior tests, reporting) @{ */
    int workloadsBuilt() const { return _workloadsBuilt.load(); }
    int tracesBuilt() const { return _tracesBuilt.load(); }
    int analysesBuilt() const { return _analysesBuilt.load(); }
    int hintTablesBuilt() const { return _hintTablesBuilt.load(); }
    /** @} */

  private:
    template <typename V>
    class KeyedStore
    {
      public:
        /** Return the value for @p key, running @p build exactly
         *  once per key (even under concurrency). */
        std::shared_ptr<const V>
        getOrBuild(const std::string &key,
                   const std::function<std::shared_ptr<const V>()>
                       &build)
        {
            std::shared_ptr<Slot> slot;
            {
                std::lock_guard<std::mutex> lock(_mutex);
                auto &s = _slots[key];
                if (!s)
                    s = std::make_shared<Slot>();
                slot = s;
            }
            std::call_once(slot->once,
                           [&] { slot->value = build(); });
            return slot->value;
        }

      private:
        struct Slot
        {
            std::once_flag once;
            std::shared_ptr<const V> value;
        };
        std::mutex _mutex;
        std::map<std::string, std::shared_ptr<Slot>> _slots;
    };

    KeyedStore<Workload> _workloads;
    KeyedStore<TracedWorkload> _traced;
    KeyedStore<TraceIndex> _indexes;
    KeyedStore<SpawnAnalysis> _analyses;
    KeyedStore<HintTable> _hints;

    std::shared_ptr<store::ArtifactStore> _store;

    std::atomic<int> _workloadsBuilt{0};
    std::atomic<int> _tracesBuilt{0};
    std::atomic<int> _analysesBuilt{0};
    std::atomic<int> _hintTablesBuilt{0};
};

/** How one sweep cell obtains spawn targets. */
struct SourceSpec
{
    enum class Kind {
        Baseline,  //!< no spawning (superscalar reference)
        Static,    //!< compiler hint table under @c policy
        Recon,     //!< reconvergence-predictor source (trains)
        Dmt,       //!< DMT-style dynamic heuristics
    };

    Kind kind = Kind::Baseline;
    SpawnPolicy policy{};  //!< for Kind::Static only

    bool operator==(const SourceSpec &) const = default;

    static SourceSpec
    baseline()
    {
        return {};
    }
    static SourceSpec
    statics(SpawnPolicy p)
    {
        SourceSpec s;
        s.kind = Kind::Static;
        s.policy = std::move(p);
        return s;
    }
    static SourceSpec
    recon()
    {
        SourceSpec s;
        s.kind = Kind::Recon;
        return s;
    }
    static SourceSpec
    dmt()
    {
        SourceSpec s;
        s.kind = Kind::Dmt;
        return s;
    }
};

/** One independent timing simulation in a sweep grid. */
struct SweepCell
{
    std::string workload;
    double scale = 1.0;
    SourceSpec source;
    MachineConfig config{};
    /** Reported as TimingResult::policyName. */
    std::string label;
};

/** Outcome of one cell. */
struct CellResult
{
    TimingResult sim;
    /** Wall time of this cell alone: input resolution plus its
     *  timing run. */
    double wallSeconds = 0.0;
    /** The cell's spawn source; dynamic sources stay inspectable
     *  after training (e.g. the reconvergence predictor). Null for
     *  baseline cells. */
    std::shared_ptr<SpawnSource> source;
};

/**
 * Thread-pool executor for sweep grids. Each worker runs one cell —
 * one machine — at a time, claiming cells from a queue ordered
 * most expensive first, so the long cells do not trail the sweep.
 * Results are returned in cell order whatever the schedule, so
 * downstream printing is deterministic.
 */
class SweepRunner
{
  public:
    /**
     * @param jobs worker count; <= 0 selects defaultJobs().
     * @param batchWidth how many consecutive cells of the queue a
     *        worker claims at a time; <= 0 selects
     *        defaultBatchWidth(). A cell's result does not depend on
     *        it, nor on the job count.
     *
     * If PF_CACHE_DIR names a directory, the runner's cache gets
     * the persistent store there attached (see
     * store/artifact_store.hh); otherwise it stays in memory. This
     * is the one place that reads PF_CACHE_DIR.
     */
    explicit SweepRunner(int jobs = 0, int batchWidth = 0);

    int batchWidth() const { return _batchWidth; }
    SweepCache &cache() { return *_cache; }
    /** Shareable handle, e.g. for Session::open over this cache. */
    const std::shared_ptr<SweepCache> &cacheHandle() const
    {
        return _cache;
    }

    /**
     * Execute every cell and return results in cell order. Each
     * distinct (workload, scale) trace is resolved first, in
     * parallel; then the cells run in costOrder(). If cells throw,
     * every cell still runs and the error of the first *declared*
     * failing cell is rethrown, so the message does not depend on
     * the job count. When @p report is true, prints per-cell
     * wall-clock and aggregate simulated-instruction throughput to
     * stderr (never stdout, so table output stays byte-identical
     * across job counts).
     */
    std::vector<CellResult> run(const std::vector<SweepCell> &cells,
                                bool report = true);

    /**
     * Generic parallel loop over [0, n) on the runner's pool; run()
     * builds each cell's shared inputs with it, and perfbench's
     * set-up and the driver tests call it directly. Exceptions from
     * @p fn are rethrown (lowest index wins).
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t)> &fn);

  private:
    int _jobs;
    int _batchWidth;
    std::shared_ptr<SweepCache> _cache;
};

/**
 * The order in which SweepRunner::run starts @p cells: by estimated
 * host cost, most expensive first, ties in declaration order. The
 * estimate is the cell's trace length (@p traceLengths, one per
 * cell) times a fixed weight per spawn-source kind. Returns cell
 * indices.
 */
std::vector<size_t>
costOrder(const std::vector<SweepCell> &cells,
          const std::vector<size_t> &traceLengths);

/** Default worker count: std::thread::hardware_concurrency(), at
 *  least 1. */
int defaultJobs();

/**
 * Worker count from the command line: `--jobs N` or `--jobs=N` (the
 * last one wins), else defaultJobs(). Exits with status 2 and a clear
 * error on a malformed value or on any other argument.
 */
int jobsFromArgs(int argc, char **argv);

/** Cells a SweepRunner worker claims at a time by default: 1. */
int defaultBatchWidth();

/**
 * Strict positive-double parser for environment knobs: the full
 * string must parse and the value must be finite and > 0, else
 * nullopt. (std::atof would silently return 0.)
 */
std::optional<double> parsePositiveDouble(const char *text);

/**
 * Count knob @p text: a positive integer (at most 4096), else exit
 * with status 2 and an error naming the knob @p what.
 */
int parseCount(const char *what, const char *text);

/**
 * Scale knob @p text: parsePositiveDouble, else exit with status 2
 * and an error naming the knob @p what (a silent 0 would turn every
 * workload into a few instructions).
 */
double parseScale(const char *what, const char *text);

/** Workload knob @p text: a name allWorkloadNames() lists, else
 *  exit with status 2 and "unknown workload: <text>". */
std::string parseWorkload(const char *text);

/** Workload scale: PF_BENCH_SCALE if set (parseScale), else
 *  @p fallback. */
double scaleFromEnv(double fallback);

} // namespace polyflow::driver

#endif // POLYFLOW_DRIVER_SWEEP_HH
