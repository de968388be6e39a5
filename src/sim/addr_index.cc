#include "sim/addr_index.hh"

#include <algorithm>

namespace polyflow {

AddrIndex::AddrIndex(const Trace &trace)
{
    for (TraceIdx i = 0; i < trace.size(); ++i)
        _occ[trace.staticOf(i).addr].push_back(i);
}

TraceIdx
AddrIndex::nextOccurrence(Addr pc, TraceIdx after) const
{
    auto it = _occ.find(pc);
    if (it == _occ.end())
        return invalidTrace;
    const auto &v = it->second;
    auto pos = std::upper_bound(v.begin(), v.end(), after);
    return pos == v.end() ? invalidTrace : *pos;
}

} // namespace polyflow
