/**
 * @file
 * Little-endian loads and stores and the two hashes of the
 * persistent artifact store: FNV-1a (store keys) and the four-lane
 * word hash (container payload checksums and the linked program's
 * content hash, ir/module.hh). Header-only so the payload codecs
 * in src/isa and src/spawn and the linker in src/ir can use it
 * without linking pf_store.
 *
 * Every multi-byte value is stored least-significant byte first,
 * regardless of host endianness, so cache files are portable and the
 * checksums are stable across machines.
 */

#ifndef POLYFLOW_STORE_BYTES_HH
#define POLYFLOW_STORE_BYTES_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace polyflow::store {

/** @p v with its bytes in reverse order. */
template <class T>
constexpr T
byteSwapped(T v)
{
    T r = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        r = static_cast<T>((r << 8) | ((v >> (8 * i)) & 0xff));
    return r;
}

/** @name Fixed-width little-endian access to unaligned bytes @{ */
template <class T>
inline T
loadLE(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native != std::endian::little)
        v = byteSwapped(v);
    return v;
}

template <class T>
inline void
storeLE(char *p, T v)
{
    if constexpr (std::endian::native != std::endian::little)
        v = byteSwapped(v);
    std::memcpy(p, &v, sizeof(v));
}
/** @} */

/** FNV-1a 64-bit over a byte range, chainable via @p seed. */
constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

inline std::uint64_t
fnv1a(std::string_view data, std::uint64_t seed = fnvOffsetBasis)
{
    std::uint64_t h = seed;
    for (char c : data) {
        h ^= static_cast<std::uint8_t>(c);
        h *= fnvPrime;
    }
    return h;
}

/** One lane step of wordHash: a bijection of @p lane for a fixed
 *  @p word, and injective in @p word for a fixed @p lane. */
constexpr std::uint64_t
laneStep(std::uint64_t lane, std::uint64_t word)
{
    return std::rotl(lane + word * 0xc2b2ae3d27d4eb4full, 31) *
        0x9e3779b185ebca87ull;
}

/**
 * Four-lane word hash. The data's 8-byte little-endian words go
 * round-robin into four independent lanes, the last 32-byte block
 * zero-padded; then the length and the four lanes fold into one
 * value through the same step. Each step is a bijection of its state
 * for a fixed word and injective in the word, so two inputs of one
 * length that differ only within one word, any single-byte change
 * included, always hash differently.
 */
inline std::uint64_t
wordHash(std::string_view data)
{
    std::uint64_t lanes[4] = {1, 2, 3, 4};
    const auto block = [&lanes](const char *p) {
        for (int i = 0; i < 4; ++i)
            lanes[i] = laneStep(lanes[i], loadLE<std::uint64_t>(p + 8 * i));
    };
    size_t pos = 0;
    for (; data.size() - pos >= 32; pos += 32)
        block(data.data() + pos);
    char tail[32] = {};
    data.copy(tail, sizeof(tail), pos);
    block(tail);

    std::uint64_t h = data.size();
    for (std::uint64_t lane : lanes)
        h = laneStep(h, lane);
    return h;
}

} // namespace polyflow::store

#endif // POLYFLOW_STORE_BYTES_HH
