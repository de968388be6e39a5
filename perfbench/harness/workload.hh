/**
 * @file
 * The benchmark's workloads and the two kinds of repetition it runs
 * over them.
 *
 * An untraced repetition drives the public API exactly as a figure
 * bench does: Session on the SweepRunner's cache for set-up, then
 * SweepRunner::run over the grid, stats::toJson over the results and
 * the output check. It yields the end-to-end metrics.
 *
 * A traced repetition calls each layer's public function directly
 * (buildWorkload, runFunctional, ArtifactStore load/save/entries,
 * SpawnAnalysis, HintTable, TraceIndex, TimingSim::runBatch with a
 * StageProfile, stats::toJson) inside a span, so each layer's self
 * time can be read off the trace. It yields the per-layer metrics.
 */

#ifndef PF_PERFBENCH_WORKLOAD_HH
#define PF_PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/sweep.hh"
#include "reference.hh"
#include "sim/core.hh"
#include "summary.hh"

namespace pfbench {

enum class WorkloadKind { LineupSerial, LineupParallel, ColdPipeline };

std::optional<WorkloadKind> workloadByName(const std::string &name);
const char *workloadName(WorkloadKind kind);

/** The six static policies of the lineup, in Figure 9 order. */
const std::vector<polyflow::SpawnPolicy> &staticPolicies();

/**
 * Every workload x {superscalar, six static policies, rec_pred, dmt}
 * at @p scale, in figure order (the lineup grid).
 */
std::vector<polyflow::driver::SweepCell> lineupCells(double scale);

/** One superscalar baseline cell per workload (the cold grid). */
std::vector<polyflow::driver::SweepCell> coldCells(double scale);

/**
 * The declaration order of repetition @p rep of a run with @p seed: a
 * Fisher-Yates shuffle of [0, @p n) driven by std::mt19937_64, whose
 * output the standard fixes, so a (seed, rep) pair names the same
 * order on every platform. Each repetition gets its own order, so a
 * run's medians cover many batch orders, not the luck of one.
 */
std::vector<size_t> declarationOrder(size_t n, std::uint64_t seed,
                                     int rep);

/** "superscalar", "static", "rec_pred" or "dmt". */
const char *sourceKindName(const polyflow::driver::SourceSpec &s);

/**
 * The batches SweepRunner::run forms (sweep.hh): cells sharing a
 * (workload, scale, MachineConfig), in cell order, chunked into
 * batches of at most @p width. With @p splitBySource, cells of
 * different source kinds also go to different batches, which is how
 * the traced run attributes host time to each source kind.
 */
std::vector<std::vector<size_t>>
sweepBatches(const std::vector<polyflow::driver::SweepCell> &cells,
             int width, bool splitBySource);

/**
 * Batch occupancy: sum of machine cycles over sum of (longest
 * machine's cycles x machines), over all @p batches — the share of
 * the batch engine's machine slots that hold a live machine.
 */
double batchOccupancy(const std::vector<std::vector<size_t>> &batches,
                      const std::vector<polyflow::TimingResult> &results);

/**
 * Simulated-model statistics of a grid (the model.* metrics): mean
 * superscalar IPC, mean speedup over superscalar per workload as in
 * the paper, grid-wide slot shares, spawns and violations.
 */
std::vector<Metric>
modelMetrics(const std::vector<polyflow::driver::SweepCell> &cells,
             const std::vector<polyflow::TimingResult> &results);

/** Everything fixed for one benchmark run. */
struct Plan
{
    WorkloadKind kind = WorkloadKind::LineupSerial;
    double scale = 1.0;
    int jobs = 1;
    int batchWidth = 8;
    std::uint64_t seed = 1;
    /** The grid in figure order; repetitions declare it to the
     *  runner in declarationOrder(). */
    std::vector<polyflow::driver::SweepCell> cells;
    /** Checked against every cell's result. */
    const Reference *reference = nullptr;

    bool cold() const { return kind == WorkloadKind::ColdPipeline; }
};

Plan makePlan(WorkloadKind kind, double scale, std::uint64_t seed,
              const Reference *reference);

/** Outcome checks shared by both repetition kinds. */
struct Checks
{
    int attempted = 0;
    int failed = 0;
    /** Failing cells and store-tier breaks, one line each. */
    std::vector<std::string> errors;

    bool ok() const { return failed == 0 && errors.empty(); }
};

struct UntracedRep
{
    /** Set-up, SweepRunner::run, and the whole repetition (set-up,
     *  sweep, stats export and output check). */
    double setupS = 0, sweepS = 0, wallS = 0;
    /** Sum of CellResult::wallSeconds. */
    double cellsS = 0;
    std::uint64_t machineCycles = 0;
    /** Peak resident memory of the process during the repetition. */
    double peakRssMb = 0;
    /** Results in plan.cells order. */
    std::vector<polyflow::TimingResult> results;
    Checks checks;
};

/**
 * Repetition @p rep, untraced, against the store at @p storeDir
 * (primed for the lineups, empty for the cold workload).
 */
UntracedRep runUntraced(const Plan &plan, int rep,
                        const std::filesystem::path &storeDir);

struct TracedRep
{
    double wallS = 0;
    /** Self time per span layer, summed over workers. */
    std::map<std::string, double> selfS;
    /** Self time of the benchmark's structural spans over wallS. */
    double unattributedFrac = 0;
    polyflow::StageProfile stages;
    /** Per source kind: sum of batch wall ns and machine cycles. */
    std::map<std::string, std::pair<double, std::uint64_t>> bySource;
    int storeHits = 0, storeMisses = 0;
    std::uint64_t storeBytes = 0;
    std::uint64_t tracedInstrs = 0;
    Checks checks;
};

/** Repetition @p rep, traced. */
TracedRep runTraced(const Plan &plan, int rep,
                    const std::filesystem::path &storeDir);

/** Fill @p storeDir with every artifact the lineup set-up loads. */
void primeStore(double scale, const std::filesystem::path &storeDir);

/** Host facts recorded in every record, as "key": value JSON. */
std::string hostFactsJson();

/** True when this build compiled with NDEBUG (a release build). */
bool releaseBuild();

} // namespace pfbench

#endif // PF_PERFBENCH_WORKLOAD_HH
