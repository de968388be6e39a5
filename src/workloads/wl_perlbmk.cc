/**
 * @file
 * perlbmk: interpreter flavour — a bytecode dispatch loop jumping
 * through a table of handlers with a pseudo-random opcode stream.
 * The indirect jump mispredicts constantly; its immediate
 * postdominator (the dispatch latch) is an "other" spawn point that
 * hides the misprediction, which is where perlbmk's unique gains
 * came from in the paper.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

constexpr int numOps = 8;

/**
 * Emit interp(a0 = bytecode, a1 = count, a2 = jump table,
 * a3 = operand stack base). Classic while-switch interpreter with a
 * memory operand stack.
 */
void
emitInterp(Function &fn, FuncId helper)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("dispatch");
    BlockId dispatch2 = b.newBlock("dispatch2");
    std::vector<BlockId> handlers;
    for (int h = 0; h < numOps; ++h)
        handlers.push_back(b.newBlock("op" + std::to_string(h)));
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");

    b.addi(sp, sp, -16);
    b.sd(ra, sp, 0);
    b.mov(s0, a0);          // bytecode pc
    b.mov(s1, a1);          // remaining
    b.mov(s2, a3);          // stack top
    b.li(s3, 1);            // stack depth (one sentinel)
    b.sd(zero, s2, 0);
    b.jump(loop);

    // dispatch: load the opcode, index the table, jump.
    b.setBlock(loop);
    b.lbu(t0, s0, 0);
    b.andi(t0, t0, numOps - 1);
    b.jump(dispatch2);
    b.setBlock(dispatch2);
    b.slli(t1, t0, 3);
    b.add(t1, t1, a2);
    b.ld(t1, t1, 0);
    b.jr(t1, handlers);

    // op0: push immediate-ish value.
    b.setBlock(handlers[0]);
    b.lbu(t2, s0, 1);
    b.addi(s2, s2, 8);
    b.sd(t2, s2, 0);
    b.addi(s3, s3, 1);
    b.jump(latch);
    // op1: add top two (keeps one), guarded against underflow.
    {
        BlockId doAdd = b.newBlock("op1_add");
        b.setBlock(handlers[1]);
        b.slti(t4, s3, 2);
        b.bne(t4, zero, latch);
        b.setBlock(doAdd);
        b.ld(t2, s2, 0);
        b.ld(t3, s2, -8);
        b.add(t2, t2, t3);
        b.sd(t2, s2, -8);
        b.addi(s2, s2, -8);
        b.addi(s3, s3, -1);
        b.jump(latch);
    }
    // op2: xor-shift the top.
    b.setBlock(handlers[2]);
    b.ld(t2, s2, 0);
    b.slli(t3, t2, 5);
    b.xor_(t2, t2, t3);
    b.sd(t2, s2, 0);
    b.jump(latch);
    // op3: dup-and-mix.
    b.setBlock(handlers[3]);
    b.ld(t2, s2, 0);
    b.srai(t3, t2, 3);
    b.add(t2, t2, t3);
    b.addi(s2, s2, 8);
    b.sd(t2, s2, 0);
    b.addi(s3, s3, 1);
    b.jump(latch);
    // op4: conditional negate (data-dependent hammock).
    {
        BlockId neg = b.newBlock("op4_neg");
        BlockId out = b.newBlock("op4_out");
        b.setBlock(handlers[4]);
        b.ld(t2, s2, 0);
        b.bgez(t2, out);
        b.setBlock(neg);
        b.sub(t2, zero, t2);
        b.sd(t2, s2, 0);
        b.setBlock(out);
        b.jump(latch);
    }
    // op5: multiply top by a constant.
    b.setBlock(handlers[5]);
    b.ld(t2, s2, 0);
    b.li(t3, 2654435761);
    b.mul(t2, t2, t3);
    b.sd(t2, s2, 0);
    b.jump(latch);
    // op6: pop (guarded by depth).
    {
        BlockId pop = b.newBlock("op6_pop");
        b.setBlock(handlers[6]);
        b.slti(t2, s3, 2);
        b.bne(t2, zero, latch);
        b.setBlock(pop);
        b.addi(s2, s2, -8);
        b.addi(s3, s3, -1);
        b.jump(latch);
    }
    // op7: call a helper on the top of stack.
    b.setBlock(handlers[7]);
    b.ld(a0, s2, 0);
    b.call(helper);
    b.sd(a0, s2, 0);
    b.jump(latch);

    b.setBlock(latch);
    b.addi(s0, s0, 2);
    b.addi(s1, s1, -1);
    b.bne(s1, zero, loop);
    b.setBlock(exit);
    b.ld(ra, sp, 0);
    b.addi(sp, sp, 16);
    b.ret();
}

/** Emit helper(a0) -> a0: a small pure function for op7. */
void
emitHelper(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    b.li(t0, 0xff51afd7ed558ccd);
    b.mul(a0, a0, t0);
    b.srli(t1, a0, 33);
    b.xor_(a0, a0, t1);
    b.ret();
}

} // namespace

Workload
buildPerlbmk(double scale)
{
    auto mod = std::make_unique<Module>("perlbmk");
    WlRng rng(0x9e71);

    int programLen = 384;
    int iters = std::max(1, int(60 * scale));

    // Pseudo-random bytecode: opcode byte + operand byte.
    Addr code = mod->allocData("bytecode", programLen * 2);
    {
        std::vector<std::uint8_t> bytes(programLen * 2);
        for (int i = 0; i < programLen; ++i) {
            bytes[size_t(i) * 2] = std::uint8_t(rng.range(numOps));
            bytes[size_t(i) * 2 + 1] = std::uint8_t(rng.next());
        }
        mod->setData(code, std::move(bytes));
    }
    Addr stack = mod->allocData("opstack", 8192);

    Function &helper = mod->createFunction("helper");
    emitHelper(helper);
    Function &interp = mod->createFunction("interp");
    emitInterp(interp, helper.id());

    // Handler blocks are ids 3..10, after entry 0, dispatch 1 and
    // dispatch2 2 (emitInterp's creation order).
    std::vector<std::pair<FuncId, BlockId>> jt;
    for (int h = 0; h < numOps; ++h)
        jt.emplace_back(interp.id(), 3 + h);
    Addr table = mod->allocJumpTable("op_table", jt);

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        b.li(a0, std::int64_t(code));
        b.li(a1, programLen);
        b.li(a2, std::int64_t(table));
        b.li(a3, std::int64_t(stack) + 64);
        b.call(interp.id());
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
