#include "sim/trace_index.hh"

#include <algorithm>

namespace polyflow {

namespace {

/**
 * Counting sort of the positions of @p trace into @p keys keys:
 * count, prefix-sum, fill. @p keyOf maps a position to its key, or
 * to invalidTrace to leave it out. Filling in ascending position
 * order keeps each key's list sorted by trace index.
 */
template <class KeyOf>
TraceIndex::Csr
groupByKey(const Trace &trace, std::size_t keys, KeyOf keyOf)
{
    const TraceIdx n = static_cast<TraceIdx>(trace.size());
    TraceIndex::Csr csr;
    csr.offsets.assign(keys + 1, 0);
    for (TraceIdx i = 0; i < n; ++i) {
        if (TraceIdx k = keyOf(i); k != invalidTrace)
            ++csr.offsets[k + 1];
    }
    for (std::size_t k = 0; k < keys; ++k)
        csr.offsets[k + 1] += csr.offsets[k];
    csr.items.resize(csr.offsets[keys]);
    std::vector<std::uint32_t> fill(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
    for (TraceIdx i = 0; i < n; ++i) {
        if (TraceIdx k = keyOf(i); k != invalidTrace)
            csr.items[fill[k]++] = i;
    }
    return csr;
}

} // namespace

TraceIndex::TraceIndex(const Trace &trace)
    : _prog(trace.prog),
      _occurrences(groupByKey(
          trace, _prog ? _prog->size() : 0,
          [&](TraceIdx i) { return TraceIdx(trace.instrs[i].img()); })),
      _consumers(groupByKey(trace, trace.sideSize(), [&](TraceIdx i) {
          // Only a load has a memory producer, and a store always has
          // a side slot: its effective address.
          const TraceIdx store = trace.memProd(trace.instrs[i]);
          return store != invalidTrace ? trace.instrs[store].side
                                       : invalidTrace;
      }))
{}

TraceIdx
TraceIndex::nextOccurrence(Addr pc, TraceIdx after) const
{
    const ImageIdx img = _prog->findIdx(pc);
    if (img == maxImageSize)
        return invalidTrace;
    const Span occ = _occurrences.of(img);
    const TraceIdx *pos = std::upper_bound(occ.begin(), occ.end(), after);
    return pos == occ.end() ? invalidTrace : *pos;
}

} // namespace polyflow
