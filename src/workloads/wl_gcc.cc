/**
 * @file
 * gcc: compiler flavour — many distinct medium-sized passes with
 * mixed control flow (hammocks of varying predictability, small
 * loops, an if-chain dispatcher and direct calls), spread across a
 * large static footprint. No single spawn class dominates, as in
 * the real benchmark.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

/**
 * Emit one leaf pass: pass<i>(a0 = words, a1 = count, a2 = out).
 * Structure varies with the variant: branch predictability ranges
 * from ~50% to ~95%, and some variants carry a nested hammock.
 */
void
emitLeafPass(Function &fn, int variant, WlRng &rng)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("loop");
    BlockId thenB = b.newBlock("then");
    BlockId inner = b.newBlock("inner_then");
    BlockId join = b.newBlock("join");
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");

    // Branch selectivity: variant picks which data bits drive the
    // branch; low bits are uniform (~50%), the byte-compare form is
    // skewed (~94%).
    int bit = variant % 3;
    b.mov(t0, a0);
    b.mov(t1, a1);
    b.li(s6, 0x1000 + variant);
    b.jump(loop);

    b.setBlock(loop);
    b.ld(t2, t0, 0);
    if (variant % 4 == 3) {
        // Skewed branch: taken ~6% of the time.
        b.andi(t3, t2, 0xff);
        b.slti(t3, t3, 16);
        b.beq(t3, zero, join);
    } else {
        b.srli(t3, t2, bit);
        b.andi(t3, t3, 1);
        b.beq(t3, zero, join);
    }
    b.setBlock(thenB);
    b.xor_(s6, s6, t2);
    b.slli(t4, t2, 2);
    b.add(s6, s6, t4);
    if (variant % 2 == 0) {
        // Nested hammock on another bit (~50%).
        b.srli(t5, t2, 9);
        b.andi(t5, t5, 1);
        b.beq(t5, zero, join);
        b.setBlock(inner);
        b.srai(t6, s6, 4);
        b.xor_(s6, s6, t6);
    } else {
        b.jump(join);
        b.setBlock(inner);
        b.nop();  // unreachable filler keeps shapes distinct
    }

    b.setBlock(join);
    b.addi(s6, s6, 1);

    b.setBlock(latch);
    b.addi(t0, t0, 8);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.setBlock(exit);
    b.sd(s6, a2, 0);
    b.ret();
    (void)rng;
}

/**
 * Emit a mid-level pass that dispatches to three leaves through an
 * if-chain keyed on a mode word (predictable per call site).
 */
void
emitMidPass(Function &fn, FuncId l0, FuncId l1, FuncId l2)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId m1 = b.newBlock("mode1");
    BlockId m2 = b.newBlock("mode2");
    BlockId call0 = b.newBlock("call0");
    BlockId call1 = b.newBlock("call1");
    BlockId call2 = b.newBlock("call2");
    BlockId out = b.newBlock("out");

    b.addi(sp, sp, -16);
    b.sd(ra, sp, 0);
    // a3 = mode (0..2).
    b.addi(t0, zero, 1);
    b.blt(a3, t0, call0);
    b.setBlock(m1);
    b.beq(a3, t0, call1);
    b.setBlock(m2);
    b.jump(call2);

    b.setBlock(call0);
    b.call(l0);
    b.jump(out);
    b.setBlock(call1);
    b.call(l1);
    b.jump(out);
    b.setBlock(call2);
    b.call(l2);

    b.setBlock(out);
    b.ld(ra, sp, 0);
    b.addi(sp, sp, 16);
    b.ret();
}

} // namespace

Workload
buildGcc(double scale)
{
    auto mod = std::make_unique<Module>("gcc");
    WlRng rng(0x6cc);

    constexpr int numLeaves = 9;
    constexpr int numMids = 3;
    int words = 20;
    int iters = std::max(1, int(90 * scale));

    Addr data = allocRandomWords(*mod, "rtl", 64, rng);
    Addr outs = mod->allocData("outs", (numLeaves + numMids) * 8);

    std::vector<FuncId> leaves;
    for (int i = 0; i < numLeaves; ++i) {
        Function &fn = mod->createFunction("leaf" + std::to_string(i));
        emitLeafPass(fn, i, rng);
        padToStride(fn, 2048, Addr(i % 4) * 384);
        leaves.push_back(fn.id());
    }
    std::vector<FuncId> mids;
    for (int i = 0; i < numMids; ++i) {
        Function &fn = mod->createFunction("mid" + std::to_string(i));
        emitMidPass(fn, leaves[3 * i], leaves[3 * i + 1],
                    leaves[3 * i + 2]);
        padToStride(fn, 2048, Addr(i % 3) * 640);
        mids.push_back(fn.id());
    }

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        for (int i = 0; i < numMids; ++i) {
            for (int mode = 0; mode < 3; ++mode) {
                // Each pass starts from data selected by the
                // previous pass's result (passes form a pipeline,
                // as in a real compiler).
                int prev = (3 * i + mode + 7) % 9;
                b.li(t0, std::int64_t(outs) + 8 * prev);
                b.ld(t0, t0, 0);
                b.andi(t0, t0, 56);
                b.li(a0, std::int64_t(data));
                b.add(a0, a0, t0);
                b.li(a1, words);
                b.li(a2, std::int64_t(outs) + 8 * (3 * i + mode));
                b.li(a3, mode);
                b.call(mids[i]);
            }
        }
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
