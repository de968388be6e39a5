#include "isa/arch_state.hh"

#include <bit>
#include <cstring>

#include "store/bytes.hh"

namespace polyflow {

ArchState::ArchState()
{
    _regs.fill(0);
}

std::uint8_t
ArchState::readByte(Addr addr) const
{
    const auto *page = _pages.peek(addr / pageBytes);
    return page ? (*page)[addr % pageBytes] : 0;
}

void
ArchState::writeByte(Addr addr, std::uint8_t value)
{
    _pages.get(addr / pageBytes)[addr % pageBytes] = value;
}

std::uint64_t
ArchState::readMem(Addr addr, int bytes)
{
    std::uint64_t v = 0;
    const Addr off = addr % pageBytes;
    if (off + bytes > pageBytes) {
        for (int i = 0; i < bytes; ++i)
            v |= std::uint64_t(readByte(addr + i)) << (8 * i);
        return v;
    }
    const auto *page = _pages.find(addr / pageBytes);
    if (!page)
        return 0;
    // The bytes fill v from its lowest address; on a big-endian host
    // the swap moves them, in reverse, to the low end.
    std::memcpy(&v, page->data() + off, bytes);
    if constexpr (std::endian::native != std::endian::little)
        v = store::byteSwapped(v);
    return v;
}

void
ArchState::writeMem(Addr addr, std::uint64_t value, int bytes)
{
    const Addr off = addr % pageBytes;
    if (off + bytes > pageBytes) {
        for (int i = 0; i < bytes; ++i)
            writeByte(addr + i, (value >> (8 * i)) & 0xff);
        return;
    }
    if constexpr (std::endian::native != std::endian::little)
        value = store::byteSwapped(value);
    std::memcpy(_pages.get(addr / pageBytes).data() + off, &value, bytes);
}

std::uint64_t
ArchState::memChecksum() const
{
    std::uint64_t sum = 0;
    for (const auto &[pn, page] : _pages.pages()) {
        std::uint64_t psum = pn * 0x9e3779b97f4a7c15ull;
        for (size_t i = 0; i < pageBytes; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, page->data() + i, 8);
            psum ^= w + 0x9e3779b97f4a7c15ull + (psum << 6) +
                (psum >> 2);
        }
        sum ^= psum;
    }
    return sum;
}

} // namespace polyflow
