/**
 * @file
 * bzip2: block-sort flavour — counting passes and an
 * insertion-style pass over nearly sorted data. Branches are highly
 * predictable, giving the suite's highest baseline IPC and small
 * spawn gains, like the real benchmark.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

/** Emit count_freqs(a0 = bytes, a1 = count, a2 = freq table). */
void
emitCountFreqs(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("loop");
    BlockId exit = b.newBlock("exit");
    b.mov(t0, a0);
    b.mov(t1, a1);
    b.jump(loop);
    b.setBlock(loop);
    b.lbu(t2, t0, 0);
    b.andi(t2, t2, 63);
    b.slli(t2, t2, 3);
    b.add(t2, t2, a2);
    b.ld(t3, t2, 0);
    b.addi(t3, t3, 1);
    b.sd(t3, t2, 0);
    b.addi(t0, t0, 1);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.setBlock(exit);
    b.ret();
}

/**
 * Emit bubble_pass(a0 = words, a1 = count): one pass of
 * compare-and-swap over nearly sorted 64-bit keys; the swap branch
 * is rarely taken (~8%), so prediction is easy.
 */
void
emitBubblePass(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("loop");
    BlockId swap = b.newBlock("swap");
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");
    b.mov(t0, a0);
    b.mov(t1, a1);
    b.addi(t1, t1, -1);
    b.jump(loop);
    b.setBlock(loop);
    b.ld(t2, t0, 0);
    b.ld(t3, t0, 8);
    b.bge(t3, t2, latch);   // usually in order
    b.setBlock(swap);
    b.sd(t3, t0, 0);
    b.sd(t2, t0, 8);
    b.setBlock(latch);
    b.addi(t0, t0, 8);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.setBlock(exit);
    b.ret();
}

/** Emit mtf_pass(a0 = bytes, a1 = count, a2 = out): fold a rolling
 *  transform with straight-line arithmetic (no hard branches). */
void
emitMtfPass(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("loop");
    BlockId exit = b.newBlock("exit");
    b.mov(t0, a0);
    b.mov(t1, a1);
    b.li(t4, 0x9e3779b9);
    b.li(t5, 0);
    b.jump(loop);
    b.setBlock(loop);
    b.lbu(t2, t0, 0);
    b.xor_(t5, t5, t2);
    b.mul(t5, t5, t4);
    b.srli(t6, t5, 17);
    b.xor_(t5, t5, t6);
    b.addi(t0, t0, 1);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.setBlock(exit);
    b.sd(t5, a2, 0);
    b.ret();
}

} // namespace

Workload
buildBzip2(double scale)
{
    auto mod = std::make_unique<Module>("bzip2");
    WlRng rng(0xb21b);

    int blockBytes = 768;
    int sortWords = 96;
    int iters = std::max(1, int(55 * scale));

    Addr block = mod->allocData("block", blockBytes);
    {
        std::vector<std::uint8_t> bytes(blockBytes);
        for (int i = 0; i < blockBytes; ++i)
            bytes[i] = std::uint8_t(rng.next());
        mod->setData(block, std::move(bytes));
    }
    // Nearly sorted keys: ascending with occasional inversions.
    std::uint64_t v = 0;
    Addr keys = allocWords(*mod, "keys", sortWords, [&](size_t) {
        v += rng.range(64);
        return rng.chance(8) && v > 40 ? v - 40 : v;
    });
    Addr freqs = mod->allocData("freqs", 64 * 8);
    Addr out = mod->allocData("out", 64);

    Function &count = mod->createFunction("count_freqs");
    emitCountFreqs(count);
    Function &bubble = mod->createFunction("bubble_pass");
    emitBubblePass(bubble);
    Function &mtf = mod->createFunction("mtf_pass");
    emitMtfPass(mtf);

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        b.li(a0, std::int64_t(block));
        b.li(a1, 256);
        b.li(a2, std::int64_t(freqs));
        b.call(count.id());
        b.li(a0, std::int64_t(keys));
        b.li(a1, sortWords);
        b.call(bubble.id());
        b.li(a0, std::int64_t(block));
        b.li(a1, 192);
        b.li(a2, std::int64_t(out));
        b.call(mtf.id());
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
