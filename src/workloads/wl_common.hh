/**
 * @file
 * Shared helpers for the synthetic workload builders: a
 * deterministic host-side PRNG and a little-endian word writer for
 * initializing data segments, generators for common data shapes
 * (word arrays, linked lists), the counted `main` loop every driver
 * runs, and the packager that links a module into a Workload.
 */

#ifndef POLYFLOW_WORKLOADS_WL_COMMON_HH
#define POLYFLOW_WORKLOADS_WL_COMMON_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/builder.hh"
#include "ir/module.hh"
#include "workloads/workloads.hh"

namespace polyflow {

/** Deterministic xorshift64* PRNG for data-segment initialization. */
class WlRng
{
  public:
    explicit WlRng(std::uint64_t seed) : _s(seed ? seed : 0x1234567)
    {}

    std::uint64_t
    next()
    {
        _s ^= _s >> 12;
        _s ^= _s << 25;
        _s ^= _s >> 27;
        return _s * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, n). */
    std::uint64_t range(std::uint64_t n) { return next() % n; }

    /** True with probability @p percent / 100. */
    bool chance(int percent)
    {
        return static_cast<int>(range(100)) < percent;
    }

  private:
    std::uint64_t _s;
};

/** Write @p value as a little-endian 64-bit word at @p offset. */
void putWord(std::vector<std::uint8_t> &bytes, size_t offset,
             std::uint64_t value);

/**
 * Allocate an array of @p count 64-bit words; word i is @p word(i),
 * called in increasing i.
 */
template <typename WordFn>
Addr
allocWords(Module &mod, const std::string &name, size_t count,
           WordFn word)
{
    Addr base = mod.allocData(name, count * 8);
    std::vector<std::uint8_t> bytes(count * 8);
    for (size_t i = 0; i < count; ++i)
        putWord(bytes, i * 8, word(i));
    mod.setData(base, std::move(bytes));
    return base;
}

/** Allocate and fill an array of 64-bit pseudo-random words. */
Addr allocRandomWords(Module &mod, const std::string &name,
                      size_t count, WlRng &rng,
                      std::uint64_t mask = ~0ull);

/**
 * Allocate and fill an array of 64-bit words that are 0 or 1, with
 * the given probability (in percent) of being 1. The workloads use
 * these as data-dependent branch inputs with controlled
 * predictability.
 */
Addr allocBitWords(Module &mod, const std::string &name, size_t count,
                   int percentOnes, WlRng &rng);

/**
 * Build a singly linked list in the data segment. Each node has
 * @p fieldsPerNode 8-byte payload fields followed by the next
 * pointer; the i-th payload field of each node is pseudo-random.
 * Nodes are laid out in a shuffled order so address streams are not
 * trivially sequential. Returns the head node address.
 */
Addr allocLinkedList(Module &mod, const std::string &name,
                     size_t nodes, int fieldsPerNode, WlRng &rng);

/** Byte offset of payload field @p i in an allocLinkedList node. */
constexpr std::int64_t
listField(int i)
{
    return 8 * i;
}

/** Byte offset of the next pointer with @p fieldsPerNode fields. */
constexpr std::int64_t
listNext(int fieldsPerNode)
{
    return 8 * fieldsPerNode;
}

/**
 * Pad @p fn so the next function starts @p stride bytes past this
 * function's start. Aligning hot functions to the L1I set-index
 * stride (4 KiB for the Figure 8 L1I) makes their lines contend for
 * the same sets, reproducing the capacity/conflict pressure of a
 * benchmark whose real code footprint exceeds the cache.
 */
void padToStride(Function &fn, Addr stride = 4096, Addr stagger = 0);

/**
 * Emit `main` as the benchmark driver: @p iters passes of @p body,
 * counted down in s7, then halt. @p body starts in the loop block
 * and may create and switch to more blocks; the count-down branch
 * goes in whatever block it ends in. Blocks are created in the
 * order entry, loop, @p body's blocks, done, and the linker lays
 * them out in that order. Sets `main` as the entry function.
 */
void emitDriver(Module &mod, int iters,
                const std::function<void(FunctionBuilder &)> &body);

/** Link @p mod into the Workload of the same name. */
Workload finishWorkload(std::unique_ptr<Module> mod);

/** @name The builders behind buildWorkload() @{ */
Workload buildBzip2(double scale);
Workload buildCrafty(double scale);
Workload buildGap(double scale);
Workload buildGcc(double scale);
Workload buildGzip(double scale);
Workload buildMcf(double scale);
Workload buildParser(double scale);
Workload buildPerlbmk(double scale);
Workload buildTwolf(double scale);
Workload buildVortex(double scale);
Workload buildVprPlace(double scale);
Workload buildVprRoute(double scale);
/** @} */

} // namespace polyflow

#endif // POLYFLOW_WORKLOADS_WL_COMMON_HH
