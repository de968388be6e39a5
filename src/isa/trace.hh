/**
 * @file
 * The committed dynamic instruction trace. The functional simulator
 * produces it; the timing simulator and the reconvergence predictor
 * consume it.
 */

#ifndef POLYFLOW_ISA_TRACE_HH
#define POLYFLOW_ISA_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.hh"
#include "ir/types.hh"

namespace polyflow {

/**
 * One committed dynamic instruction, 16 bytes. Static properties
 * (opcode, registers, classification) live in the LinkedProgram
 * image; the record stores only dynamic facts plus precomputed
 * dependence links that let the timing model run without
 * re-executing. The facts only some records carry — an effective
 * address or jump target, and a load's memory producer — live in
 * the owning Trace's side table; read them through Trace::effAddr
 * and Trace::memProd.
 */
struct DynInstr
{
    /** `side` of a record with no side-table entry. */
    static constexpr std::uint32_t noSide = ~std::uint32_t(0);

    /** Image index in bits 0..30 (below maxImageSize), the taken
     *  flag in bit 31. */
    std::uint32_t imgTaken = 0;
    /**
     * Trace indices of the dynamic producers of the two source
     * registers (invalidTrace when the value predates the trace or
     * the operand is r0 / absent).
     */
    TraceIdx prod[2] = {invalidTrace, invalidTrace};
    /** Slot in the trace's side table, or noSide. */
    std::uint32_t side = noSide;

    /** Index of the static instruction in the program image. */
    ImageIdx img() const { return imgTaken & (maxImageSize - 1); }
    /** Control transfer redirected fetch (branch taken / jump). */
    bool taken() const { return (imgTaken >> 31) != 0; }
};
static_assert(sizeof(DynInstr) == 16);
static_assert(maxImageSize == ImageIdx(1) << 31);

/**
 * A full committed trace plus its program: one DynInstr per
 * committed instruction, and a side table holding the effective
 * address (or resolved indirect-jump target) and the memory producer
 * of exactly the records that have either. append() keeps the two
 * in step, and decodeTrace (isa/trace_io.hh) checks that they are.
 */
class Trace
{
  public:
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
        DynInstr d;
        d.imgTaken = img | (taken ? maxImageSize : 0);
        d.prod[0] = prod0;
        d.prod[1] = prod1;
        if (effAddr != invalidAddr || memProd != invalidTrace) {
            d.side = static_cast<std::uint32_t>(_effAddr.size());
            _effAddr.push_back(effAddr);
            _memProd.push_back(memProd);
        }
        instrs.push_back(d);
    }

    /** Release spare capacity of the records and the side table. */
    void
    shrinkToFit()
    {
        instrs.shrink_to_fit();
        _effAddr.shrink_to_fit();
        _memProd.shrink_to_fit();
    }

    /** Memory effective address, or resolved indirect-jump target,
     *  of @p d; invalidAddr if none. */
    Addr
    effAddr(const DynInstr &d) const
    {
        return d.side == DynInstr::noSide ? invalidAddr : _effAddr[d.side];
    }
    /** For a load, the trace index of the most recent older store
     *  whose accessed 8-byte aligned chunk overlaps it; invalidTrace
     *  if none (and for every other instruction). */
    TraceIdx
    memProd(const DynInstr &d) const
    {
        return d.side == DynInstr::noSide ? invalidTrace : _memProd[d.side];
    }
    /** Side-table entries: slots 0 .. sideSize() - 1. */
    size_t sideSize() const { return _effAddr.size(); }
    /** Side-table entries allocated room for. */
    size_t sideCapacity() const { return _effAddr.capacity(); }

  private:
    friend void encodeTrace(const Trace &, std::string &);
    friend bool decodeTrace(std::string_view, const LinkedProgram &, Trace &);
    std::vector<Addr> _effAddr;      //!< by side slot
    std::vector<TraceIdx> _memProd;  //!< by side slot
};

} // namespace polyflow

#endif // POLYFLOW_ISA_TRACE_HH
