/**
 * @file
 * The committed dynamic instruction trace. The functional simulator
 * produces it; the timing simulator and the reconvergence predictor
 * consume it.
 */

#ifndef POLYFLOW_ISA_TRACE_HH
#define POLYFLOW_ISA_TRACE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.hh"
#include "ir/types.hh"

namespace polyflow {

/**
 * One committed dynamic instruction, 8 bytes. Static properties
 * (opcode, registers, classification) live in the LinkedProgram
 * image; the record stores only dynamic facts plus the dependence
 * links that let the timing model run without re-executing. Read
 * the links, and the facts only some records carry (an effective
 * address or jump target, a load's memory producer), through the
 * owning Trace by position: Trace::prod, Trace::effAddr and
 * Trace::memProd.
 */
struct DynInstr
{
    /** `back` of a link the trace's far-producer table answers. */
    static constexpr std::uint16_t farBack = 0xFFFF;

    /** Image index in bits 0..30 (below maxImageSize), the taken
     *  flag in bit 31. */
    std::uint32_t imgTaken = 0;
    /**
     * How far back the dynamic producers of the two source
     * registers lie: 0 when the value predates the trace or the
     * operand is r0 / absent, d in 1 .. farBack - 1 for the record
     * d positions earlier, farBack for one the far table holds.
     */
    std::uint16_t back[2] = {0, 0};

    /** Index of the static instruction in the program image. */
    ImageIdx img() const { return imgTaken & (maxImageSize - 1); }
    /** Control transfer redirected fetch (branch taken / jump). */
    bool taken() const { return (imgTaken >> 31) != 0; }
};
static_assert(sizeof(DynInstr) == 8);
static_assert(maxImageSize == ImageIdx(1) << 31);

/**
 * A full committed trace plus its program: one DynInstr per
 * committed instruction, and beside the records
 *
 *  - the far-producer table: the producer links that do not fit a
 *    record's back-distance, sorted by (position, operand);
 *  - the side table: the effective address (or resolved
 *    indirect-jump target) and the memory producer of exactly the
 *    records that have either, in record order, and a side bitmap
 *    with one bit per record that says which those are. A record's
 *    slot is its rank among the set bits: a per-64-record prefix
 *    count plus one popcount.
 *
 * append() keeps them all in step, and decodeTrace
 * (isa/trace_io.hh) checks that they are.
 */
class Trace
{
  public:
    /** side() of a record with no side-table entry. */
    static constexpr std::uint32_t noSide = ~std::uint32_t(0);

    /** A producer link a record's back-distance cannot hold. */
    struct FarProd
    {
        TraceIdx at;      //!< the consumer's position
        std::uint32_t k;  //!< its operand, 0 or 1
        TraceIdx prod;    //!< the producer's position
    };

    const LinkedProgram *prog = nullptr;
    /** The records, in commit order. Read-only outside append(). */
    std::vector<DynInstr> instrs;

    const LinkedInstr &staticOf(TraceIdx i) const
    {
        return prog->at(instrs[i].img());
    }
    size_t size() const { return instrs.size(); }

    /**
     * Add the next committed instruction.
     * @param img static instruction, below maxImageSize
     * @param prod0,prod1 trace indices of the producers of the two
     *        source registers; invalidTrace if none
     * @param effAddr memory effective address or resolved
     *        indirect-jump target; invalidAddr if none
     * @param memProd for loads, the trace index of the most recent
     *        older store whose accessed 8-byte aligned chunk
     *        overlaps this load; invalidTrace if none
     */
    void
    append(ImageIdx img, bool taken, TraceIdx prod0, TraceIdx prod1,
           Addr effAddr, TraceIdx memProd)
    {
        const TraceIdx i = static_cast<TraceIdx>(instrs.size());
        DynInstr d;
        d.imgTaken = img | (taken ? maxImageSize : 0);
        const TraceIdx prods[2] = {prod0, prod1};
        for (std::uint32_t k = 0; k < 2; ++k) {
            if (prods[k] == invalidTrace)
                continue;
            // A producer not older wraps to a large distance, so the
            // far table keeps it as given.
            const TraceIdx back = i - prods[k];
            if (back - 1 < DynInstr::farBack - 1) {
                d.back[k] = static_cast<std::uint16_t>(back);
            } else {
                d.back[k] = DynInstr::farBack;
                _far.push_back({i, k, prods[k]});
            }
        }
        if (i % 64 == 0) {
            _sideBits.push_back(0);
            _sideRank.push_back(static_cast<std::uint32_t>(sideSize()));
        }
        if (effAddr != invalidAddr || memProd != invalidTrace) {
            _sideBits.back() |= std::uint64_t(1) << (i % 64);
            _effAddr.push_back(effAddr);
            _memProd.push_back(memProd);
        }
        instrs.push_back(d);
    }

    /** Release spare capacity of every array. */
    void
    shrinkToFit()
    {
        instrs.shrink_to_fit();
        _far.shrink_to_fit();
        _sideBits.shrink_to_fit();
        _sideRank.shrink_to_fit();
        _effAddr.shrink_to_fit();
        _memProd.shrink_to_fit();
    }

    /** Trace index of the producer of source register @p k (0 or 1)
     *  of record @p i; invalidTrace if none. */
    TraceIdx
    prod(TraceIdx i, int k) const
    {
        const std::uint16_t back = instrs[i].back[k];
        if (back == 0)
            return invalidTrace;
        return back != DynInstr::farBack ? i - back : farProd(i, k);
    }

    /** Side-table slot of record @p i, or noSide. */
    std::uint32_t
    side(TraceIdx i) const
    {
        const std::uint64_t word = _sideBits[i / 64];
        const std::uint64_t bit = std::uint64_t(1) << (i % 64);
        if (!(word & bit))
            return noSide;
        return _sideRank[i / 64] +
            static_cast<std::uint32_t>(std::popcount(word & (bit - 1)));
    }

    /** Memory effective address, or resolved indirect-jump target,
     *  of record @p i; invalidAddr if none. */
    Addr
    effAddr(TraceIdx i) const
    {
        const std::uint32_t s = side(i);
        return s == noSide ? invalidAddr : _effAddr[s];
    }
    /** For a load, the trace index of the most recent older store
     *  whose accessed 8-byte aligned chunk overlaps it; invalidTrace
     *  if none (and for every other instruction). */
    TraceIdx
    memProd(TraceIdx i) const
    {
        const std::uint32_t s = side(i);
        return s == noSide ? invalidTrace : _memProd[s];
    }
    /** Side-table entries: slots 0 .. sideSize() - 1. */
    size_t sideSize() const { return _effAddr.size(); }
    /** Side-table entries allocated room for. */
    size_t sideCapacity() const { return _effAddr.capacity(); }
    /** Entries of the far-producer table. */
    size_t farSize() const { return _far.size(); }

  private:
    friend void encodeTrace(const Trace &, std::string &);
    friend bool decodeTrace(std::string_view, const LinkedProgram &, Trace &);

    /** The far table's answer for operand @p k of record @p i. */
    TraceIdx
    farProd(TraceIdx i, int k) const
    {
        const auto it = std::lower_bound(
            _far.begin(), _far.end(), FarProd{i, std::uint32_t(k), 0},
            [](const FarProd &a, const FarProd &b) {
                return a.at != b.at ? a.at < b.at : a.k < b.k;
            });
        return it->prod;
    }

    std::vector<FarProd> _far;  //!< by (at, k)
    std::vector<std::uint64_t> _sideBits;  //!< bit i % 64 of word i / 64
    std::vector<std::uint32_t> _sideRank;  //!< set bits before each word
    std::vector<Addr> _effAddr;      //!< by side slot
    std::vector<TraceIdx> _memProd;  //!< by side slot
};

} // namespace polyflow

#endif // POLYFLOW_ISA_TRACE_HH
