/**
 * @file
 * Pinned per-cell references: the benchmark's output check. Every
 * cell of every workload is pinned by its exact cycle count and a
 * SHA-256 digest of its full exported TimingResult (stats::runToJson:
 * every counter, slot bucket and label), so any drift of the model,
 * down to one cycle in one counter, fails the cell.
 */

#ifndef PF_PERFBENCH_REFERENCE_HH
#define PF_PERFBENCH_REFERENCE_HH

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "sim/result.hh"

namespace pfbench {

/** SHA-256 hex of the cell's exported record. */
std::string cellDigest(const std::string &workload, double scale,
                       const polyflow::TimingResult &r);

/** The reference file for @p scale under @p dir. */
std::filesystem::path referencePath(const std::filesystem::path &dir,
                                    double scale);

class Reference
{
  public:
    /** Parse a reference file; nullopt when it is missing or
     *  malformed. */
    static std::optional<Reference>
    load(const std::filesystem::path &path);

    void add(const std::string &workload, double scale,
             const polyflow::TimingResult &r);

    /** Write one line per cell, sorted by (workload, label). */
    void write(const std::filesystem::path &path) const;

    /**
     * Why the cell's result is wrong: it breaks the accounting
     * identity sum(slots) == cycles x issueWidth, has no pinned
     * reference, or differs from it. Empty when it is right.
     */
    std::string check(const std::string &workload, double scale,
                      const polyflow::TimingResult &r) const;

    size_t size() const { return _cells.size(); }

  private:
    struct Entry
    {
        std::uint64_t cycles = 0;
        std::string digest;
    };
    std::map<std::pair<std::string, std::string>, Entry> _cells;
};

} // namespace pfbench

#endif // PF_PERFBENCH_REFERENCE_HH
