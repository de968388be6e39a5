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
              offsetof(DynInstr, back) == 4);
static_assert(std::is_trivially_copyable_v<Trace::FarProd> &&
              sizeof(Trace::FarProd) == 12 &&
              offsetof(Trace::FarProd, k) == 4 &&
              offsetof(Trace::FarProd, prod) == 8);

constexpr size_t headBytes = 24;
constexpr size_t slotBytes = sizeof(Addr) + sizeof(TraceIdx);

void
encodeTrace(const Trace &trace, std::string &out)
{
    const auto put = [&out](const auto &v) {
        if (!v.empty()) {
            out.append(reinterpret_cast<const char *>(v.data()),
                       v.size() * sizeof(v[0]));
        }
    };
    const std::uint64_t head[3] = {trace.size(), trace.sideSize(),
                                   trace.farSize()};
    static_assert(sizeof(head) == headBytes);
    out.reserve(out.size() + headBytes + sizeof(DynInstr) * head[0] +
                sizeof(Trace::FarProd) * head[2] +
                sizeof(std::uint64_t) * trace._sideBits.size() +
                slotBytes * head[1]);
    out.append(reinterpret_cast<const char *>(head), headBytes);
    put(trace.instrs);
    put(trace._far);
    put(trace._sideBits);
    put(trace._effAddr);
    put(trace._memProd);
}

bool
decodeTrace(std::string_view payload, const LinkedProgram &prog,
            Trace &out)
{
    if (payload.size() < headBytes)
        return false;
    const auto records = store::loadLE<std::uint64_t>(payload.data());
    const auto side = store::loadLE<std::uint64_t>(payload.data() + 8);
    const auto far = store::loadLE<std::uint64_t>(payload.data() + 16);
    // Bound every count before sizing anything; positions and slots
    // are TraceIdx.
    const size_t body = payload.size() - headBytes;
    if (records >= invalidTrace || records > body / sizeof(DynInstr) ||
        side > body / slotBytes ||
        far > body / sizeof(Trace::FarProd))
        return false;
    const std::uint64_t words = (records + 63) / 64;
    if (records * sizeof(DynInstr) + far * sizeof(Trace::FarProd) +
            words * sizeof(std::uint64_t) + side * slotBytes !=
        body)
        return false;

    Trace t;
    t.prog = &prog;
    const char *p = payload.data() + headBytes;
    const auto copy = [&p](auto &v, size_t n) {
        v.resize(n);
        // An empty vector may have no storage to copy into.
        if (n != 0)
            std::memcpy(v.data(), p, n * sizeof(v[0]));
        p += n * sizeof(v[0]);
    };
    copy(t.instrs, records);
    copy(t._far, far);
    copy(t._sideBits, words);
    copy(t._effAddr, side);
    copy(t._memProd, side);
    t._sideRank.resize(words);

    std::uint64_t slots = 0;  // set bits before record i
    std::uint64_t nextFar = 0;
    for (std::uint64_t i = 0; i < records; ++i) {
        if (i % 64 == 0)
            t._sideRank[i / 64] = static_cast<std::uint32_t>(slots);
        const DynInstr &d = t.instrs[i];
        if (d.img() >= prog.size())
            return false;
        for (std::uint32_t k = 0; k < 2; ++k) {
            if (d.back[k] != DynInstr::farBack) {
                // A near producer lies at or after position 0.
                if (d.back[k] > i)
                    return false;
                continue;
            }
            // The far entries answer the far links one for one, in
            // (position, operand) order, each with an older producer.
            if (nextFar == far)
                return false;
            const Trace::FarProd &f = t._far[nextFar++];
            if (f.at != i || f.k != k || f.prod >= i)
                return false;
        }
        if (!((t._sideBits[i / 64] >> (i % 64)) & 1))
            continue;
        // The set bits name every slot (below), and each carries an
        // address or a memory producer.
        if (slots == side)
            return false;
        const std::uint64_t slot = slots++;
        const TraceIdx memProd = t._memProd[slot];
        if (t._effAddr[slot] == invalidAddr && memProd == invalidTrace)
            return false;
        // Only a load has a memory producer (TraceIndex keys on it).
        if (memProd != invalidTrace &&
            (memProd >= i || !prog.image()[d.img()].instr.isLoad()))
            return false;
    }
    // Every far entry and slot is some record's, and no bit lies past
    // the last record.
    if (nextFar != far || slots != side ||
        (records % 64 != 0 && (t._sideBits.back() >> (records % 64)) != 0))
        return false;
    out = std::move(t);
    return true;
}

} // namespace polyflow
