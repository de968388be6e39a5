#include "sim/trace_index.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace polyflow {

constexpr std::uint32_t noKey = ~std::uint32_t(0);  //!< a CSR leaves it out

TraceIndex::TraceIndex(const Trace &trace) : _prog(trace.prog)
{
    // Number the spawn targets (see the class comment) densely.
    const std::vector<LinkedInstr> &image = _prog->image();
    std::uint32_t targets = 0;
    _slotOf.resize(image.size());
    for (size_t k = 0; k < image.size(); ++k) {
        const bool target = image[k].blockStart ||
            (k > 0 && image[k - 1].instr.isCall());
        _slotOf[k] = target ? targets++ : noKey;
    }
    _occurrences.offsets.assign(size_t(targets) + 1, 0);
    _consumers.offsets.assign(trace.sideSize() + 1, 0);

    // Both CSRs in one counting pass and one fill pass. The count of
    // key k goes to offsets[k]; summed up, offsets[k] is the end of
    // k's list. Filling from the last position down leaves each list
    // ascending and moves offsets[k] back to its start.
    const TraceIdx n = static_cast<TraceIdx>(trace.size());
    auto forEachKey = [&](TraceIdx i, auto add) {
        add(_occurrences, _slotOf[trace.instrs[i].img()]);
        // Only a load has a memory producer, and a store always has
        // a side slot: its effective address.
        const TraceIdx store = trace.memProd(i);
        add(_consumers, store != invalidTrace ? trace.side(store) : noKey);
    };
    for (TraceIdx i = 0; i < n; ++i) {
        forEachKey(i, [](Csr &csr, std::uint32_t k) {
            if (k != noKey)
                ++csr.offsets[k];
        });
    }
    for (Csr *csr : {&_occurrences, &_consumers}) {
        std::partial_sum(csr->offsets.begin(), csr->offsets.end(),
                         csr->offsets.begin());
        csr->items.resize(csr->offsets.back());
    }
    for (TraceIdx i = n; i-- > 0;) {
        forEachKey(i, [i](Csr &csr, std::uint32_t k) {
            if (k != noKey)
                csr.items[--csr.offsets[k]] = i;
        });
    }
}

TraceIdx
TraceIndex::nextOccurrence(Addr pc, TraceIdx after) const
{
    const ImageIdx img = _prog->findIdx(pc);
    if (img == maxImageSize)
        return invalidTrace;
    if (_slotOf[img] == noKey) {
        throw std::invalid_argument(
            "TraceIndex: address " + std::to_string(pc) +
            " is neither a block start nor a call's return address");
    }
    const Span occ = _occurrences.of(_slotOf[img]);
    const TraceIdx *pos = std::upper_bound(occ.begin(), occ.end(), after);
    return pos == occ.end() ? invalidTrace : *pos;
}

} // namespace polyflow
