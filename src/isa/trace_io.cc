#include "isa/trace_io.hh"

#include "store/bytes.hh"

namespace polyflow {

namespace {
constexpr size_t recordBytes = 4 + 4 + 8 + 4 + 4 + 4;
} // namespace

void
encodeTrace(const Trace &trace, std::string &out)
{
    out.reserve(out.size() + 8 + recordBytes * trace.instrs.size());
    store::putU64(out, trace.instrs.size());
    for (const DynInstr &d : trace.instrs) {
        store::putU32(out, d.img());
        store::putU32(out, d.taken() ? 1u : 0u);
        store::putU64(out, trace.effAddr(d));
        store::putU32(out, d.prod[0]);
        store::putU32(out, d.prod[1]);
        store::putU32(out, trace.memProd(d));
    }
}

bool
decodeTrace(std::string_view payload, const LinkedProgram &prog,
            Trace &out)
{
    store::ByteReader r(payload);
    std::uint64_t count = 0;
    if (!r.u64(count))
        return false;
    if (r.remaining() % recordBytes != 0 ||
        r.remaining() / recordBytes != count)
        return false;

    Trace t;
    t.prog = &prog;
    t.instrs.reserve(count);
    const std::uint32_t imgLimit =
        static_cast<std::uint32_t>(prog.size());
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t img = 0, flags = 0;
        Addr effAddr = 0;
        TraceIdx prod0 = 0, prod1 = 0, memProd = 0;
        if (!r.u32(img) || !r.u32(flags) || !r.u64(effAddr) ||
            !r.u32(prod0) || !r.u32(prod1) || !r.u32(memProd)) {
            return false;
        }
        // Producers precede their consumer.
        const auto older = [i](TraceIdx p) {
            return p == invalidTrace || p < i;
        };
        if (img >= imgLimit || flags > 1 || !older(prod0) ||
            !older(prod1) || !older(memProd))
            return false;
        t.append(img, flags != 0, prod0, prod1, effAddr, memProd);
    }
    if (!r.atEnd())
        return false;
    t.shrinkToFit();
    out = std::move(t);
    return true;
}

} // namespace polyflow
