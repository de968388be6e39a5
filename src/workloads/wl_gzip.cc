/**
 * @file
 * gzip: LZ77 flavour — a match-length scan with a data-dependent
 * but mostly short inner loop, and a bit-packing pass with highly
 * predictable branches. High baseline IPC, modest spawn gains, like
 * the real benchmark.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

/**
 * Emit longest_match(a0 = window, a1 = window limit, a3 = out): walk
 * a cursor up to the limit, at each step scanning forward while the
 * bytes match a hashed candidate (geometric lengths, capped at 32)
 * and advancing by the match length; stores a checksum of the
 * lengths to out.
 */
void
emitLongestMatch(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId outer = b.newBlock("outer");
    BlockId scan = b.newBlock("scan");
    BlockId scanCont = b.newBlock("scan_cont");
    BlockId scanEnd = b.newBlock("scan_end");
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");

    // a0 = window, a1 = window limit (bytes to encode), a3 = out.
    // The cursor advances by the match length found at each step,
    // exactly like deflate: iteration handoff is loop-carried.
    b.li(s0, 64);           // cursor i
    b.li(s6, 0);            // rolling checksum
    b.jump(outer);

    b.setBlock(outer);
    // Candidate j: a cheap hash of the cursor (dictionary probe).
    b.slli(t5, s0, 3);
    b.xor_(t5, t5, s0);
    b.andi(t5, t5, 1023);
    b.add(t2, s0, a0);      // &window[i]
    b.add(t3, t5, a0);      // &window[j]
    b.li(t4, 0);            // match length
    b.jump(scan);

    b.setBlock(scan);
    b.lbu(t5, t2, 0);
    b.lbu(t6, t3, 0);
    b.bne(t5, t6, scanEnd);

    b.setBlock(scanCont);
    b.addi(t2, t2, 1);
    b.addi(t3, t3, 1);
    b.addi(t4, t4, 1);
    b.slti(t7, t4, 32);
    b.bne(t7, zero, scan);

    b.setBlock(scanEnd);
    b.slli(t7, t4, 2);
    b.xor_(s6, s6, t7);
    b.add(s6, s6, t4);

    b.setBlock(latch);
    b.addi(s0, s0, 1);
    b.add(s0, s0, t4);      // advance by the match length
    b.blt(s0, a1, outer);
    b.setBlock(exit);
    b.sd(s6, a3, 0);
    b.ret();
}

/**
 * Emit pack_bits(a0 = lengths, a1 = count, a2 = out): fold values
 * into a bit buffer with fully predictable control flow.
 */
void
emitPackBits(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("loop");
    BlockId flush = b.newBlock("flush");
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");

    b.mov(t0, a0);
    b.mov(t1, a1);
    b.li(t2, 0);            // bit buffer
    b.li(t3, 0);            // bit count
    b.mov(t4, a2);          // out cursor
    b.jump(loop);

    b.setBlock(loop);
    b.ld(t5, t0, 0);
    b.andi(t5, t5, 0x1f);
    b.sll(t5, t5, t3);
    b.or_(t2, t2, t5);
    b.addi(t3, t3, 5);
    b.slti(t6, t3, 56);
    b.bne(t6, zero, latch); // predictable: flush every ~11th
    b.setBlock(flush);
    b.sd(t2, t4, 0);
    b.addi(t4, t4, 8);
    b.li(t2, 0);
    b.li(t3, 0);

    b.setBlock(latch);
    b.addi(t0, t0, 8);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.setBlock(exit);
    b.ret();
}

} // namespace

Workload
buildGzip(double scale)
{
    auto mod = std::make_unique<Module>("gzip");
    WlRng rng(0x621f);

    int windowBytes = 4096;
    int numPositions = 64;
    int iters = std::max(1, int(16 * scale));

    // Window with long runs so matches are a few bytes on average.
    Addr window = mod->allocData("window", windowBytes);
    {
        std::vector<std::uint8_t> bytes(windowBytes);
        std::uint8_t cur = 0;
        for (int i = 0; i < windowBytes; ++i) {
            if (rng.chance(8))
                cur = std::uint8_t(rng.next());
            bytes[i] = cur;
        }
        mod->setData(window, std::move(bytes));
    }
    // Position pairs within the window (leave scan headroom).
    allocWords(*mod, "positions", numPositions * 2,
               [&](size_t) { return rng.range(windowBytes - 64); });
    Addr lengths = allocRandomWords(*mod, "lengths", 64, rng, 0x1f);
    Addr out = mod->allocData("out", 1024);

    Function &match = mod->createFunction("longest_match");
    emitLongestMatch(match);
    Function &pack = mod->createFunction("pack_bits");
    emitPackBits(pack);

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        b.li(a0, std::int64_t(window));
        b.li(a1, 1400);
        b.li(a3, std::int64_t(out));
        b.call(match.id());
        b.li(a0, std::int64_t(lengths));
        b.li(a1, 64);
        b.li(a2, std::int64_t(out) + 8);
        b.call(pack.id());
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
