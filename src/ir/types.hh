/**
 * @file
 * Fundamental scalar types shared by every PolyFlow module.
 */

#ifndef POLYFLOW_IR_TYPES_HH
#define POLYFLOW_IR_TYPES_HH

#include <cstdint>
#include <limits>

namespace polyflow {

/** A flat byte address in the simulated machine (code or data). */
using Addr = std::uint64_t;

/** An architectural register identifier (0..numArchRegs-1). */
using RegId = std::uint8_t;

/** Index of a basic block within its function. */
using BlockId = std::int32_t;

/** Index of a function within its module. */
using FuncId = std::int32_t;

/** Index of an instruction in a linked (flat) program image. */
using ImageIdx = std::uint32_t;

/** Images hold fewer instructions than this: a trace record packs
 *  the image index into 31 bits (DynInstr). */
constexpr ImageIdx maxImageSize = ImageIdx(1) << 31;

/** Index of a record in a dynamic (committed) instruction trace. */
using TraceIdx = std::uint32_t;

/** Sentinel for "no block". */
constexpr BlockId invalidBlock = -1;

/** Sentinel for "no function". */
constexpr FuncId invalidFunc = -1;

/** Sentinel for "no address". */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel for "no trace index". */
constexpr TraceIdx invalidTrace = std::numeric_limits<TraceIdx>::max();

/** Number of architectural integer registers. Register 0 reads as zero. */
constexpr int numArchRegs = 32;

/** Size in bytes of every encoded instruction. */
constexpr Addr instrBytes = 4;

/** Conventional register assignments (RISC-style ABI). */
namespace reg {
constexpr RegId zero = 0;  //!< hardwired zero
constexpr RegId ra = 1;    //!< return address
constexpr RegId sp = 2;    //!< stack pointer
constexpr RegId gp = 3;    //!< global (data segment) pointer
constexpr RegId a0 = 4;    //!< first argument / return value
constexpr RegId a1 = 5;
constexpr RegId a2 = 6;
constexpr RegId a3 = 7;
constexpr RegId t0 = 8;    //!< temporaries t0..t7 = r8..r15
constexpr RegId t1 = 9;
constexpr RegId t2 = 10;
constexpr RegId t3 = 11;
constexpr RegId t4 = 12;
constexpr RegId t5 = 13;
constexpr RegId t6 = 14;
constexpr RegId t7 = 15;
constexpr RegId s0 = 16;   //!< saved s0..s7 = r16..r23
constexpr RegId s1 = 17;
constexpr RegId s2 = 18;
constexpr RegId s3 = 19;
constexpr RegId s4 = 20;
constexpr RegId s5 = 21;
constexpr RegId s6 = 22;
constexpr RegId s7 = 23;
constexpr RegId t8 = 24;   //!< more temporaries r24..r31
constexpr RegId t9 = 25;
constexpr RegId t10 = 26;
constexpr RegId t11 = 27;
} // namespace reg

} // namespace polyflow

#endif // POLYFLOW_IR_TYPES_HH
