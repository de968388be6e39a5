/**
 * @file
 * Structured export of timing-simulation statistics.
 *
 * A sweep (or a single run) is serialized as a list of RunRecords —
 * (workload, scale, label, TimingResult) — to JSON or CSV. The
 * serialization is fully deterministic: fixed field order, fixed
 * number formatting, LF line endings, no timestamps, no pointers.
 * Because the sweep engine returns results in declaration order at
 * any job count, the exported bytes are identical between `--jobs 1`
 * and `--jobs N` runs; tests/test_driver.cc enforces this per cell.
 *
 * The cycle-accounting buckets (TimingResult::slots) are exported under
 * their stable slotBucketName() keys; see docs/OBSERVABILITY.md for
 * the taxonomy and the accounting identity.
 */

#ifndef POLYFLOW_STATS_EXPORT_HH
#define POLYFLOW_STATS_EXPORT_HH

#include <string>
#include <vector>

#include "sim/result.hh"

namespace polyflow::stats {

/** One exported run: where it ran plus everything it reported. */
struct RunRecord
{
    std::string workload;
    double scale = 1.0;
    /** Run label (usually the policy name). */
    std::string label;
    TimingResult sim;
};

/**
 * One record as a JSON object, indented by @p indent spaces per
 * level with the object itself starting at @p indent. This is the
 * unit the byte-identity tests compare cell by cell.
 */
std::string runToJson(const RunRecord &r, int indent = 0);

/** A full export: `{"runs": [...]}` with one object per record. */
std::string toJson(const std::vector<RunRecord> &records);

/** CSV with a fixed header; one row per record. */
std::string toCsv(const std::vector<RunRecord> &records);

/**
 * Check the accounting identity of @p r: its slot buckets sum to
 * cycles x issueWidth. On a violation, print the workload, the label
 * and the three numbers to stderr and exit with status 1.
 */
void checkSlotIdentity(const RunRecord &r);

/** Write @p content to @p path (throws on failure). */
void writeFile(const std::string &path, const std::string &content);

} // namespace polyflow::stats

#endif // POLYFLOW_STATS_EXPORT_HH
