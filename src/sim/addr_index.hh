/**
 * @file
 * AddrIndex: per-PC occurrence lists over a committed trace. The
 * Task Spawn Unit uses this to locate the next dynamic occurrence of
 * a spawn target (the paper's spawn unit "uses a trace to ensure
 * that tasks are not spawned too far into the future").
 */

#ifndef POLYFLOW_SIM_ADDR_INDEX_HH
#define POLYFLOW_SIM_ADDR_INDEX_HH

#include <unordered_map>
#include <vector>

#include "isa/trace.hh"

namespace polyflow {

/** Sorted occurrence index of every PC in a trace. */
class AddrIndex
{
  public:
    explicit AddrIndex(const Trace &trace);

    /**
     * First trace index strictly after @p after whose PC is @p pc,
     * or invalidTrace.
     */
    TraceIdx nextOccurrence(Addr pc, TraceIdx after) const;

  private:
    std::unordered_map<Addr, std::vector<TraceIdx>> _occ;
};

} // namespace polyflow

#endif // POLYFLOW_SIM_ADDR_INDEX_HH
