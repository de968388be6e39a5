#include "isa/trace_io.hh"

#include <bit>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "store/bytes.hh"

namespace polyflow {

// The payload holds the arrays' own bytes in the documented layout.
static_assert(std::endian::native == std::endian::little);
static_assert(std::is_trivially_copyable_v<DynInstr> &&
              offsetof(DynInstr, imgTaken) == 0 &&
              offsetof(DynInstr, prod) == 4 && offsetof(DynInstr, side) == 12);

constexpr size_t slotBytes = sizeof(Addr) + sizeof(TraceIdx);

void
encodeTrace(const Trace &trace, std::string &out)
{
    const auto put = [&out](const auto &v) {
        out.append(reinterpret_cast<const char *>(v.data()),
                   v.size() * sizeof(v[0]));
    };
    const std::uint64_t head[2] = {trace.size(), trace.sideSize()};
    out.reserve(out.size() + sizeof(head) + sizeof(DynInstr) * head[0] +
                slotBytes * head[1]);
    out.append(reinterpret_cast<const char *>(head), sizeof(head));
    put(trace.instrs);
    put(trace._effAddr);
    put(trace._memProd);
}

bool
decodeTrace(std::string_view payload, const LinkedProgram &prog,
            Trace &out)
{
    if (payload.size() < 16)
        return false;
    const auto records = store::loadLE<std::uint64_t>(payload.data());
    const auto side = store::loadLE<std::uint64_t>(payload.data() + 8);
    // Bound both counts before sizing anything.
    const size_t body = payload.size() - 16;
    if (records > body / sizeof(DynInstr) || side > body / slotBytes ||
        records * sizeof(DynInstr) + side * slotBytes != body)
        return false;

    Trace t;
    t.prog = &prog;
    const char *p = payload.data() + 16;
    const auto copy = [&p](auto &v, size_t n) {
        v.resize(n);
        std::memcpy(v.data(), p, n * sizeof(v[0]));
        p += n * sizeof(v[0]);
    };
    copy(t.instrs, records);
    copy(t._effAddr, side);
    copy(t._memProd, side);

    std::uint64_t slots = 0;
    for (std::uint64_t i = 0; i < records; ++i) {
        const DynInstr &d = t.instrs[i];
        // Producers precede their consumer.
        const auto older = [i](TraceIdx prod) {
            return prod == invalidTrace || prod < i;
        };
        if (d.img() >= prog.size() || !older(d.prod[0]) || !older(d.prod[1]))
            return false;
        if (d.side == DynInstr::noSide)
            continue;
        // Slots are named in order, every one (below), and each
        // carries an address or a memory producer.
        if (d.side != slots || slots++ == side)
            return false;
        const TraceIdx memProd = t._memProd[d.side];
        if (t._effAddr[d.side] == invalidAddr && memProd == invalidTrace)
            return false;
        // Only a load has a memory producer (TraceIndex keys on it).
        if (memProd != invalidTrace &&
            (!older(memProd) || !prog.image()[d.img()].instr.isLoad()))
            return false;
    }
    if (slots == side)
        out = std::move(t);
    return slots == side;
}

} // namespace polyflow
