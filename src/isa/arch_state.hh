/**
 * @file
 * Architectural state: the integer register file plus a sparse,
 * paged, byte-addressable memory.
 */

#ifndef POLYFLOW_ISA_ARCH_STATE_HH
#define POLYFLOW_ISA_ARCH_STATE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "ir/types.hh"

namespace polyflow {

/**
 * Registers and memory of the simulated machine. Memory is allocated
 * lazily in 4 KiB pages; unwritten bytes read as zero. Register 0 is
 * hardwired to zero.
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
    std::uint64_t readMem(Addr addr, int bytes) const;
    void writeMem(Addr addr, std::uint64_t value, int bytes);
    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t value);
    /** @} */

    /** XOR-fold of all allocated memory; cheap state fingerprint. */
    std::uint64_t memChecksum() const;

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    Page &pageFor(Addr addr);
    const Page *pageForConst(Addr addr) const;

    std::array<std::int64_t, numArchRegs> _regs;
    std::unordered_map<Addr, std::unique_ptr<Page>> _pages;
};

} // namespace polyflow

#endif // POLYFLOW_ISA_ARCH_STATE_HH
