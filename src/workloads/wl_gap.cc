/**
 * @file
 * gap: computer-algebra flavour — a driver loop dispatching (by
 * direct calls) to a set of medium-sized arithmetic kernels, with
 * enough code spread to stress the I-cache. Procedure fall-through
 * spawns overlap the caller's continuation with the callee, as in
 * the real benchmark.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

/**
 * Emit one arithmetic kernel: op<i>(a0 = vec, a1 = len, a2 = out).
 * A short loop with distinct per-kernel arithmetic; branches are
 * predictable so the interest is in call/return structure.
 */
void
emitKernel(Function &fn, int variant)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("loop");
    BlockId exit = b.newBlock("exit");
    b.mov(t0, a0);
    b.mov(t1, a1);
    b.li(t2, 0x100 + variant * 7);
    b.jump(loop);
    b.setBlock(loop);
    b.ld(t3, t0, 0);
    switch (variant % 4) {
      case 0:
        b.mul(t4, t3, t2);
        b.srli(t5, t4, 11);
        b.xor_(t2, t4, t5);
        break;
      case 1:
        b.add(t4, t3, t2);
        b.slli(t5, t4, 3);
        b.sub(t2, t5, t4);
        break;
      case 2:
        b.xor_(t4, t3, t2);
        b.srai(t5, t4, 2);
        b.add(t2, t4, t5);
        break;
      default:
        b.sub(t4, t2, t3);
        b.mul(t2, t4, t3);
        break;
    }
    // Three parallel mixing lanes: footprint without a serial
    // bottleneck (the real gap kernels are arithmetic-dense).
    b.addi(t4, t2, 0x7f + variant);
    b.xori(t5, t2, 0x1b3);
    for (int i = 0; i < 40 + 4 * (variant % 3); ++i) {
        RegId lane = RegId(reg::t2 + i % 3);
        b.slli(t6, lane, 1 + i % 9);
        b.xor_(lane, lane, t6);
    }
    b.xor_(t2, t2, t4);
    b.xor_(t2, t2, t5);
    b.addi(t0, t0, 8);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.setBlock(exit);
    b.sd(t2, a2, 0);
    b.ret();
}

} // namespace

Workload
buildGap(double scale)
{
    auto mod = std::make_unique<Module>("gap");
    WlRng rng(0x6a9);

    constexpr int numKernels = 12;
    int vecLen = 4;
    int iters = std::max(1, int(55 * scale));

    Addr vec = allocRandomWords(*mod, "vec", 64, rng);
    Addr outs = mod->allocData("outs", numKernels * 8);

    std::vector<FuncId> kernels;
    for (int k = 0; k < numKernels; ++k) {
        Function &fn =
            mod->createFunction("op" + std::to_string(k));
        emitKernel(fn, k);
        padToStride(fn, 1024, Addr(k % 4) * 256);
        kernels.push_back(fn.id());
    }

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        for (int k = 0; k < numKernels; ++k) {
            b.li(a0, std::int64_t(vec) + 8 * (k % 6));
            b.li(a1, vecLen);
            b.li(a2, std::int64_t(outs) + 8 * k);
            b.call(kernels[k]);
        }
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
