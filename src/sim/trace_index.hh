/**
 * @file
 * TraceIndex: immutable per-trace lookup structures the timing
 * simulator needs when spawning is enabled. Building them costs one
 * pass over the trace, so the sweep engine computes them once per
 * (workload, scale) and shares them read-only across every
 * concurrent run on that trace.
 */

#ifndef POLYFLOW_SIM_TRACE_INDEX_HH
#define POLYFLOW_SIM_TRACE_INDEX_HH

#include <cstdint>
#include <vector>

#include "isa/trace.hh"

namespace polyflow {

/**
 * Read-only indexes over one committed trace, each a flat CSR of
 * trace positions grouped by a key:
 *
 *  - the occurrences of each spawn target, a block start or a call's
 *    return address (keyed by target slot), which the Task Spawn
 *    Unit queries to locate the next dynamic occurrence of a spawn
 *    target (the paper's spawn unit "uses a trace to ensure that
 *    tasks are not spawned too far into the future"), and
 *  - the loads that name each store as memory producer (keyed by
 *    the store's side-table slot, Trace::side, so the offsets
 *    scale with the side table rather than the trace).
 *
 * Key k's positions live in items[offsets[k] .. offsets[k + 1]), in
 * ascending trace order.
 */
class TraceIndex
{
  public:
    explicit TraceIndex(const Trace &trace);

    /**
     * First trace index strictly after @p after whose PC is @p pc,
     * or invalidTrace (also for a PC outside the program).
     * @throws std::invalid_argument naming @p pc if it is in the
     *         program but is no spawn target
     */
    TraceIdx nextOccurrence(Addr pc, TraceIdx after) const;

    /** Trace positions of one key, ascending. */
    struct Span
    {
        const TraceIdx *first;
        const TraceIdx *last;
        const TraceIdx *begin() const { return first; }
        const TraceIdx *end() const { return last; }
    };

    /** Loads naming as memory producer the store whose side-table
     *  slot is @p storeSide. */
    Span
    consumersOf(std::uint32_t storeSide) const
    {
        return _consumers.of(storeSide);
    }

    /** Trace positions grouped by key (see the class comment). */
    struct Csr
    {
        std::vector<std::uint32_t> offsets;  //!< keys + 1
        std::vector<TraceIdx> items;

        Span
        of(std::uint32_t key) const
        {
            const TraceIdx *base = items.data();
            return {base + offsets[key], base + offsets[key + 1]};
        }
    };

  private:
    const LinkedProgram *_prog;
    std::vector<std::uint32_t> _slotOf;  //!< image -> target slot, or ~0
    Csr _occurrences;  //!< target slot -> its trace positions
    Csr _consumers;    //!< store's side slot -> its consumer loads
};

} // namespace polyflow

#endif // POLYFLOW_SIM_TRACE_INDEX_HH
