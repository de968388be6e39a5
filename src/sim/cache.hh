/**
 * @file
 * Set-associative LRU cache model and the two-level hierarchy used
 * for instruction and data accesses.
 */

#ifndef POLYFLOW_SIM_CACHE_HH
#define POLYFLOW_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "ir/types.hh"
#include "sim/config.hh"

namespace polyflow {

/** One set-associative cache level with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access the line containing @p addr, filling on miss.
     * @return true on hit.
     */
    bool access(Addr addr);

    std::uint64_t misses() const { return _misses; }
    const CacheConfig &config() const { return _cfg; }

  private:
    /** An empty way has tag ~0, which no line number reaches, and
     *  lastUse 0, below every filled way's. */
    struct Way
    {
        Addr tag = ~Addr(0);
        std::uint64_t lastUse = 0;
    };
    static_assert(sizeof(Way) == 16);

    CacheConfig _cfg;
    int _lineShift;  //!< log2 of lineBytes
    int _numSets;
    std::vector<Way> _ways;  // numSets * assoc
    std::uint64_t _clock = 0;
    std::uint64_t _misses = 0;
};

/**
 * The L1I / L1D / shared-L2 hierarchy. Access methods return the
 * total latency in cycles: 1 for an L1 hit, plus the configured miss
 * latencies on the way down. No MSHR or bandwidth modelling (the
 * paper's hint cache is similarly idealized).
 */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MachineConfig &config);

    int accessInstr(Addr addr);
    int accessData(Addr addr);

    const Cache &l1i() const { return _l1i; }
    const Cache &l1d() const { return _l1d; }

  private:
    /** An access that misses @p l1 goes on to the L2. */
    int access(Cache &l1, Addr addr);

    Cache _l1i, _l1d, _l2;
};

} // namespace polyflow

#endif // POLYFLOW_SIM_CACHE_HH
