/**
 * @file
 * Architectural state: the integer register file plus a sparse,
 * paged, byte-addressable memory.
 */

#ifndef POLYFLOW_ISA_ARCH_STATE_HH
#define POLYFLOW_ISA_ARCH_STATE_HH

#include <array>
#include <cstdint>

#include "ir/types.hh"
#include "isa/page_map.hh"

namespace polyflow {

/**
 * Registers and memory of the simulated machine. Memory is allocated
 * lazily in 4 KiB pages; unwritten bytes read as zero. Register 0 is
 * hardwired to zero.
 *
 * readMem and writeMem find the page once per access through the
 * PageMap's last-page cache, and go byte by byte only for an access
 * that straddles two pages. Reading never allocates a page. The
 * cache makes readMem a writer of the object: the const readers
 * (readByte, memChecksum) bypass it.
 */
class ArchState
{
  public:
    static constexpr size_t pageBytes = 4096;

    ArchState();

    /** @name Registers @{ */
    std::int64_t readReg(RegId r) const { return _regs[r]; }
    void
    writeReg(RegId r, std::int64_t v)
    {
        if (r != reg::zero)
            _regs[r] = v;
    }
    /** @} */

    /** @name Memory (little-endian) @{ */
    /** @p bytes (1 to 8) bytes at @p addr. */
    std::uint64_t readMem(Addr addr, int bytes);
    /** Store the low @p bytes (1 to 8) bytes of @p value at @p addr. */
    void writeMem(Addr addr, std::uint64_t value, int bytes);
    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t value);
    /** @} */

    /** XOR-fold of all allocated memory; cheap state fingerprint. */
    std::uint64_t memChecksum() const;

  private:
    std::array<std::int64_t, numArchRegs> _regs;
    PageMap<std::uint8_t, pageBytes> _pages{0};
};

} // namespace polyflow

#endif // POLYFLOW_ISA_ARCH_STATE_HH
