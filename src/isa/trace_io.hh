/**
 * @file
 * Binary serialization of committed dynamic traces (the payload of
 * the persistent artifact store's trace entries).
 *
 * Layout, all little-endian: u64 record count | u64 side-table slot
 * count | u64 far-producer count | the records, 8 bytes each (the
 * DynInstr: imgTaken, back[0], back[1]) | the far-producer table,
 * 12 bytes each (consumer position, operand, producer position) |
 * the side bitmap, one u64 word per 64 records | the side table's
 * effective addresses, 8 bytes each | its memory producers, 4 bytes
 * each. These are the Trace's own arrays, so encoding appends them
 * and decoding copies them in, sized once from the header and
 * allocated to their exact sizes; the bitmap's prefix counts are
 * rebuilt in the decoder's checking pass. A decoded trace equals the
 * encoded one bit for bit. Container-level headers, versioning and
 * checksums are the artifact store's job (store/artifact_store.hh);
 * this codec is payload-only.
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
 * @p out untouched, on any structural problem: a payload length
 * that does not match the header's counts; a record whose
 * static-instruction index is out of range for @p prog, or whose
 * back-distance reaches before position 0; a far-producer table that
 * does not answer the records' far links one for one in (position,
 * operand) order, each with an older producer; one that is not a
 * load naming a memory producer, or one naming a memory producer
 * that is not older; a side bitmap with a bit set past the last
 * record, or whose set bits are not exactly the side table's slots,
 * each with an effective address or a memory producer.
 */
bool decodeTrace(std::string_view payload, const LinkedProgram &prog,
                 Trace &out);

} // namespace polyflow

#endif // POLYFLOW_ISA_TRACE_IO_HH
