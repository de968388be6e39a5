/**
 * @file
 * The run table and the grid the benches run it on. The table
 * declares, once per label, every run the paper's figures and the
 * ablation of DESIGN.md Section 6 report: its spawn source and its
 * machine. Benches, tools and tests take their runs from it by label.
 */

#ifndef POLYFLOW_DRIVER_GRID_HH
#define POLYFLOW_DRIVER_GRID_HH

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/sweep.hh"
#include "stats/export.hh"

namespace polyflow::driver {

/** One run of the table. */
struct RunSpec
{
    std::string label;
    SourceSpec source;
    MachineConfig config{};
};

/** Runs under one title, in print order. */
struct RunSection
{
    std::string title;
    std::vector<RunSpec> runs;
};

/** Every labelled run, grouped as the reports print them. */
struct RunTable
{
    /** No spawning on the one-task machine: the speedup baseline. */
    RunSpec superscalar;
    std::vector<RunSpec> individual;  //!< Figure 9; postdoms last
    std::vector<RunSpec> combined;    //!< Figure 10
    std::vector<RunSpec> exclusions;  //!< Figure 11: postdoms-<kind>
    std::vector<RunSpec> dynamics;    //!< rec_pred, dmt
    /** The ablation: postdoms with one design choice changed per
     *  row, on twolf (loop-structured) and mcf (hard hammocks). */
    std::vector<std::string> ablationWorkloads;
    std::vector<RunSection> ablation;
};

const RunTable &runTable();

/** The 16 figure runs: the superscalar, then the individual,
 *  combined, exclusion and dynamic runs. */
std::vector<RunSpec> figureRuns();

/** The figure runs, then the ablation rows. */
const std::vector<RunSpec> &allRuns();

/** The run labelled @p label, or nullopt. */
std::optional<RunSpec> runByLabel(const std::string &label);

std::vector<std::string> labelsOf(const std::vector<RunSpec> &runs);

/** The ablation's workload scale: one fifth of the figures'. */
inline double
ablationScale(double figureScale)
{
    return figureScale / 5;
}

/** Cells that run as one sweep, each distinct run declared once. */
class Grid
{
  public:
    /** Index of the cell running @p run on @p workload at @p scale:
     *  find()'s, else a new cell. */
    size_t add(const std::string &workload, double scale,
               const RunSpec &run);

    /** Index of the cell with @p workload, @p scale and @p run's
     *  source and config, or nullopt. */
    std::optional<size_t> find(const std::string &workload, double scale,
                               const RunSpec &run) const;

    /** Index of the first cell declared as @p label on @p workload;
     *  throws std::out_of_range if none was. */
    size_t cell(const std::string &workload,
                const std::string &label) const;

    /** Run every cell; @p report as for SweepRunner::run. */
    void run(SweepRunner &runner, bool report = true);

    const std::vector<SweepCell> &cells() const { return _cells; }
    /** After run(): one per cell, in cell order. */
    const std::vector<CellResult> &results() const { return _results; }

    const CellResult &at(const std::string &workload,
                         const std::string &label) const
    {
        return _results.at(cell(workload, label));
    }

    /** Speedup % over the superscalar of each run in @p labels. */
    std::vector<double>
    speedups(const std::string &workload,
             const std::vector<std::string> &labels) const;

    /** Cell @p i's run as the table row @p label, which names both
     *  the record and its result, even where rows share a cell. */
    stats::RunRecord record(size_t i, const std::string &label) const;

  private:
    std::vector<SweepCell> _cells;
    std::vector<CellResult> _results;
    std::map<std::pair<std::string, std::string>, size_t> _byLabel;
};

/** What `figures` runs: every figure run on every workload at
 *  @p scale; then on each ablation workload, at ablationScale(scale),
 *  the superscalar and every ablation row. */
Grid figuresGrid(double scale);

} // namespace polyflow::driver

#endif // POLYFLOW_DRIVER_GRID_HH
