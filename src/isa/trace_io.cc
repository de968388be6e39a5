#include "isa/trace_io.hh"

#include "store/bytes.hh"

namespace polyflow {

namespace {

constexpr size_t recordBytes = 4 + 4 + 8 + 4 + 4 + 4;

/** Field offsets within one record. */
enum : size_t { atImg = 0, atFlags = 4, atEffAddr = 8, atProd0 = 16,
                atProd1 = 20, atMemProd = 24 };

} // namespace

void
encodeTrace(const Trace &trace, std::string &out)
{
    const size_t base = out.size();
    out.resize(base + 8 + recordBytes * trace.instrs.size());
    char *p = out.data() + base;
    store::storeLE<std::uint64_t>(p, trace.instrs.size());
    for (p += 8; const DynInstr &d : trace.instrs) {
        store::storeLE<std::uint32_t>(p + atImg, d.img());
        store::storeLE<std::uint32_t>(p + atFlags, d.taken() ? 1 : 0);
        store::storeLE<Addr>(p + atEffAddr, trace.effAddr(d));
        store::storeLE<TraceIdx>(p + atProd0, d.prod[0]);
        store::storeLE<TraceIdx>(p + atProd1, d.prod[1]);
        store::storeLE<TraceIdx>(p + atMemProd, trace.memProd(d));
        p += recordBytes;
    }
}

bool
decodeTrace(std::string_view payload, const LinkedProgram &prog,
            Trace &out)
{
    if (payload.size() < 8)
        return false;
    const std::uint64_t count = store::loadLE<std::uint64_t>(payload.data());
    const std::string_view records = payload.substr(8);
    if (records.size() % recordBytes != 0 ||
        records.size() / recordBytes != count)
        return false;

    // Size the side table exactly: one slot per record with either
    // field set.
    size_t side = 0;
    for (size_t at = 0; at < records.size(); at += recordBytes) {
        const char *p = records.data() + at;
        side += store::loadLE<Addr>(p + atEffAddr) != invalidAddr ||
            store::loadLE<TraceIdx>(p + atMemProd) != invalidTrace;
    }

    Trace t;
    t.prog = &prog;
    t.reserve(count, side);
    const std::uint32_t imgLimit =
        static_cast<std::uint32_t>(prog.size());
    for (std::uint64_t i = 0; i < count; ++i) {
        const char *p = records.data() + i * recordBytes;
        const auto img = store::loadLE<std::uint32_t>(p + atImg);
        const auto flags = store::loadLE<std::uint32_t>(p + atFlags);
        const auto prod0 = store::loadLE<TraceIdx>(p + atProd0);
        const auto prod1 = store::loadLE<TraceIdx>(p + atProd1);
        const auto memProd = store::loadLE<TraceIdx>(p + atMemProd);
        // Producers precede their consumer.
        const auto older = [i](TraceIdx prod) {
            return prod == invalidTrace || prod < i;
        };
        if (img >= imgLimit || flags > 1 || !older(prod0) ||
            !older(prod1) || !older(memProd))
            return false;
        // Only a load has a memory producer (TraceIndex keys on it).
        if (memProd != invalidTrace && !prog.image()[img].instr.isLoad())
            return false;
        t.append(img, flags != 0, prod0, prod1,
                 store::loadLE<Addr>(p + atEffAddr), memProd);
    }
    out = std::move(t);
    return true;
}

} // namespace polyflow
