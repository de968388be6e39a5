/**
 * @file
 * Shared plumbing for the figure-regeneration benches: scale and
 * job-count knobs plus the standard banner. The simulation grids
 * themselves run through the sweep engine (driver/sweep.hh) — no
 * bench loops over runTiming() serially anymore.
 */

#ifndef POLYFLOW_BENCH_BENCH_UTIL_HH
#define POLYFLOW_BENCH_BENCH_UTIL_HH

#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "driver/sweep.hh"
#include "sim/config.hh"
#include "stats/export.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

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
        Agg *a = nullptr;
        for (Agg &c : aggs) {
            if (c.label == cells[i].label) {
                a = &c;
                break;
            }
        }
        if (!a) {
            aggs.push_back({cells[i].label, {}, 0});
            a = &aggs.back();
        }
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
