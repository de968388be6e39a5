/**
 * @file
 * Binary serialization of committed dynamic traces (the payload of
 * the persistent artifact store's trace entries).
 *
 * Layout: a u64 record count followed by one fixed-stride 28-byte
 * record per DynInstr — u32 img, u32 flags (bit 0 = taken), u64
 * effAddr, u32 prod[0], u32 prod[1], u32 memProd — all little-
 * endian, so record i lives at byte 8 + 28*i of the payload. The
 * encoder sizes its output once and stores each field in place; the
 * decoder checks the payload length once up front, then every
 * record. Container-level headers, versioning and checksums are the
 * artifact store's job (store/artifact_store.hh); this codec is
 * payload-only.
 *
 * In memory the record is split: img, taken and prod[] are the
 * 16-byte DynInstr, and effAddr and memProd are its entry in the
 * Trace's side table. A record without one writes invalidAddr and
 * invalidTrace (all ones) there, and decoding gives a side-table
 * entry to exactly the records whose effAddr or memProd is not all
 * ones, so the file bytes do not depend on the in-memory split. A
 * decoded trace's records and side table are allocated to their
 * exact sizes.
 */

#ifndef POLYFLOW_ISA_TRACE_IO_HH
#define POLYFLOW_ISA_TRACE_IO_HH

#include <string>
#include <string_view>

#include "isa/trace.hh"

namespace polyflow {

/** Append the binary encoding of @p trace's records to @p out. */
void encodeTrace(const Trace &trace, std::string &out);

/**
 * Decode a trace payload produced by encodeTrace. The resulting
 * trace is bound to @p prog (which must be the program the trace was
 * recorded from — the artifact store guarantees this by keying
 * entries on the program content hash). Returns false, leaving
 * @p out untouched, on any structural problem: short or oversized
 * payload, a record whose static-instruction index is out of range
 * for @p prog, one naming a producer that is not older than it, or
 * one that is not a load naming a memory producer.
 */
bool decodeTrace(std::string_view payload, const LinkedProgram &prog,
                 Trace &out);

} // namespace polyflow

#endif // POLYFLOW_ISA_TRACE_IO_HH
