/**
 * @file
 * What the two sweep benches, figures and ablation_resources, share:
 * the workload scale knob, the standard banner, and the per-run
 * cycle attribution and stats JSON under each report. Both run their
 * grids through the sweep engine (driver/sweep.hh).
 */

#ifndef POLYFLOW_BENCH_BENCH_UTIL_HH
#define POLYFLOW_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "driver/sweep.hh"
#include "sim/config.hh"
#include "stats/export.hh"
#include "stats/table.hh"

namespace polyflow::bench {

/** Workload scale for benches: 1.0, or PF_BENCH_SCALE (malformed
 *  values exit with status 2). */
inline double
benchScale()
{
    return driver::scaleFromEnv(1.0);
}

/** Standard bench banner with the machine configuration. */
inline void
banner(const std::string &title)
{
    MachineConfig cfg;
    std::cout << "=== " << title << " ===\n"
              << "machine (Figure 8): " << cfg.describe() << "\n"
              << "workload scale: " << benchScale() << "\n\n";
}

/**
 * Mechanism attribution for a figure: the cycle-accounting buckets
 * averaged over every cell sharing a run label, one row per label
 * in first-appearance order. Printed under each figure's table so a
 * speedup (or its absence) comes with *where the slots went*; see
 * docs/OBSERVABILITY.md for the taxonomy. Also re-checks the
 * accounting identity on every cell — a bench run doubles as an
 * invariant sweep.
 */
inline void
printCycleAttribution(const std::vector<driver::SweepCell> &cells,
                      const std::vector<driver::CellResult> &results)
{
    struct Agg
    {
        std::string label;
        std::array<double, numSlotBuckets> pct{};
        int n = 0;
    };
    std::vector<Agg> aggs;
    for (size_t i = 0; i < cells.size(); ++i) {
        const TimingResult &s = results[i].sim;
        if (s.slotTotal() != s.cycles * s.issueWidth) {
            std::cerr << "cycle-accounting identity violated for "
                      << cells[i].workload << "/" << cells[i].label
                      << "\n";
            std::exit(1);
        }
        auto a = std::find_if(aggs.begin(), aggs.end(), [&](auto &c) {
            return c.label == cells[i].label;
        });
        if (a == aggs.end())
            a = aggs.insert(a, {cells[i].label, {}, 0});
        for (int b = 0; b < numSlotBuckets; ++b)
            a->pct[b] += s.slotPercent(static_cast<SlotBucket>(b));
        ++a->n;
    }

    std::cout << "\ncycle accounting (mean % of issue slots per "
              << "run):\n";
    std::vector<std::string> header = {"run"};
    for (int b = 0; b < numSlotBuckets; ++b)
        header.push_back(slotBucketName(static_cast<SlotBucket>(b)));
    Table t(header);
    for (const Agg &a : aggs) {
        t.startRow();
        t.cell(a.label);
        for (int b = 0; b < numSlotBuckets; ++b)
            t.cell(a.pct[b] / a.n, 1);
    }
    t.print(std::cout);
}

/**
 * Full structured stats for a figure's grid (every counter and
 * every cycle-accounting bucket, one record per cell) as JSON next
 * to the figure's CSV. Byte-identical at any job count.
 */
inline void
writeRunStats(const std::string &path,
              const std::vector<driver::SweepCell> &cells,
              const std::vector<driver::CellResult> &results)
{
    std::vector<stats::RunRecord> recs;
    recs.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        recs.push_back({cells[i].workload, cells[i].scale,
                        cells[i].label, results[i].sim});
    }
    stats::writeFile(path, stats::toJson(recs));
}

} // namespace polyflow::bench

#endif // POLYFLOW_BENCH_BENCH_UTIL_HH
