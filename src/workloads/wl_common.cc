#include "workloads/wl_common.hh"

#include <algorithm>
#include <numeric>

namespace polyflow {

void
putWord(std::vector<std::uint8_t> &bytes, size_t offset,
        std::uint64_t value)
{
    for (int b = 0; b < 8; ++b)
        bytes[offset + b] = (value >> (8 * b)) & 0xff;
}

void
padToStride(Function &fn, Addr stride, Addr stagger)
{
    Addr bytes = fn.numInstrs() * instrBytes;
    fn.padding(stride - bytes % stride + stagger);
}

Addr
allocRandomWords(Module &mod, const std::string &name, size_t count,
                 WlRng &rng, std::uint64_t mask)
{
    return allocWords(mod, name, count,
                      [&](size_t) { return rng.next() & mask; });
}

Addr
allocBitWords(Module &mod, const std::string &name, size_t count,
              int percentOnes, WlRng &rng)
{
    return allocWords(mod, name, count, [&](size_t) {
        return std::uint64_t(rng.chance(percentOnes));
    });
}

Addr
allocLinkedList(Module &mod, const std::string &name, size_t nodes,
                int fieldsPerNode, WlRng &rng)
{
    size_t nodeBytes = size_t(fieldsPerNode + 1) * 8;
    Addr base = mod.allocData(name, nodes * nodeBytes);

    // Shuffle the traversal order so node addresses are not a
    // simple sequential stream.
    std::vector<size_t> order(nodes);
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = nodes; i > 1; --i)
        std::swap(order[i - 1], order[rng.range(i)]);

    std::vector<std::uint8_t> bytes(nodes * nodeBytes, 0);
    for (size_t i = 0; i < nodes; ++i) {
        size_t off = order[i] * nodeBytes;
        for (int f = 0; f < fieldsPerNode; ++f)
            putWord(bytes, off + 8 * f, rng.next());
        std::uint64_t nextAddr = 0;
        if (i + 1 < nodes)
            nextAddr = base + order[i + 1] * nodeBytes;
        putWord(bytes, off + 8 * fieldsPerNode, nextAddr);
    }
    mod.setData(base, std::move(bytes));
    return base + order[0] * nodeBytes;
}

void
emitDriver(Module &mod, int iters,
           const std::function<void(FunctionBuilder &)> &body)
{
    Function &main = mod.createFunction("main");
    FunctionBuilder b(main);
    BlockId loop = b.newBlock("main_loop");
    b.li(reg::s7, iters);
    b.jump(loop);
    b.setBlock(loop);
    body(b);
    b.addi(reg::s7, reg::s7, -1);
    b.bne(reg::s7, reg::zero, loop);
    b.setBlock(b.newBlock("done"));
    b.halt();
    mod.entryFunction(main.id());
}

Workload
finishWorkload(std::unique_ptr<Module> mod)
{
    Workload w;
    w.name = mod->name();
    w.prog = mod->link();
    w.module = std::move(mod);
    return w;
}

} // namespace polyflow
