/**
 * @file
 * Unit tests for the ISA layer: architectural state, instruction
 * semantics and the functional simulator (including trace recording
 * and dependence links).
 */

#include <gtest/gtest.h>

#include <functional>

#include "ir/builder.hh"
#include "isa/exec.hh"
#include "isa/functional_sim.hh"
#include "isa/trace_io.hh"
#include "workloads/workloads.hh"

namespace polyflow {
namespace {

TEST(ArchState, RegisterZeroIsHardwired)
{
    ArchState st;
    st.writeReg(reg::zero, 42);
    EXPECT_EQ(st.readReg(reg::zero), 0);
    st.writeReg(5, -7);
    EXPECT_EQ(st.readReg(5), -7);
}

TEST(ArchState, MemoryLittleEndianAndLazy)
{
    ArchState st;
    EXPECT_EQ(st.readMem(0x5000, 8), 0u);  // unwritten reads zero
    st.writeMem(0x5000, 0x1122334455667788ull, 8);
    EXPECT_EQ(st.readMem(0x5000, 8), 0x1122334455667788ull);
    EXPECT_EQ(st.readByte(0x5000), 0x88);
    EXPECT_EQ(st.readByte(0x5007), 0x11);
    EXPECT_EQ(st.readMem(0x5002, 2), 0x5566u);

    // Cross-page write.
    st.writeMem(ArchState::pageBytes - 2, 0xaabbccddu, 4);
    EXPECT_EQ(st.readMem(ArchState::pageBytes - 2, 4), 0xaabbccddu);
}

TEST(ArchState, ChecksumChangesWithContent)
{
    ArchState a, b;
    a.writeMem(0x100, 1, 8);
    b.writeMem(0x100, 2, 8);
    EXPECT_NE(a.memChecksum(), b.memChecksum());
}

/** Build, link and functionally run a single-function program. */
FunctionalResult
runProgram(const std::function<void(FunctionBuilder &, Module &)> &gen,
           bool record = false)
{
    Module m("t");
    Function &f = m.createFunction("main");
    FunctionBuilder b(f);
    gen(b, m);
    LinkedProgram p = m.link();
    FunctionalOptions opt;
    opt.recordTrace = record;
    return runFunctional(p, opt);
}

TEST(Exec, AluBasics)
{
    auto r = runProgram([](FunctionBuilder &b, Module &) {
        b.li(reg::t0, 10);
        b.li(reg::t1, 3);
        b.add(reg::t2, reg::t0, reg::t1);   // 13
        b.sub(reg::t3, reg::t0, reg::t1);   // 7
        b.mul(reg::t4, reg::t0, reg::t1);   // 30
        b.divu(reg::t5, reg::t0, reg::t1);  // 3
        b.remu(reg::t6, reg::t0, reg::t1);  // 1
        b.slt(reg::t7, reg::t1, reg::t0);   // 1
        b.halt();
    });
    EXPECT_TRUE(r.halted);
    const ArchState &st = *r.finalState;
    EXPECT_EQ(st.readReg(reg::t2), 13);
    EXPECT_EQ(st.readReg(reg::t3), 7);
    EXPECT_EQ(st.readReg(reg::t4), 30);
    EXPECT_EQ(st.readReg(reg::t5), 3);
    EXPECT_EQ(st.readReg(reg::t6), 1);
    EXPECT_EQ(st.readReg(reg::t7), 1);
}

TEST(Exec, ShiftsAndNegativeArithmetic)
{
    auto r = runProgram([](FunctionBuilder &b, Module &) {
        b.li(reg::t0, -16);
        b.srai(reg::t1, reg::t0, 2);        // -4 (arithmetic)
        b.srli(reg::t2, reg::t0, 60);       // high bits of -16
        b.slli(reg::t3, reg::t0, 1);        // -32
        b.li(reg::t4, -1);
        b.sltu(reg::t5, reg::zero, reg::t4);  // 0 < huge unsigned
        b.halt();
    });
    const ArchState &st = *r.finalState;
    EXPECT_EQ(st.readReg(reg::t1), -4);
    EXPECT_EQ(st.readReg(reg::t2), 15);
    EXPECT_EQ(st.readReg(reg::t3), -32);
    EXPECT_EQ(st.readReg(reg::t5), 1);
}

TEST(Exec, DivideByZeroIsDefined)
{
    auto r = runProgram([](FunctionBuilder &b, Module &) {
        b.li(reg::t0, 9);
        b.li(reg::t1, 0);
        b.divu(reg::t2, reg::t0, reg::t1);
        b.remu(reg::t3, reg::t0, reg::t1);
        b.halt();
    });
    EXPECT_EQ(r.finalState->readReg(reg::t2), -1);
    EXPECT_EQ(r.finalState->readReg(reg::t3), 9);
}

TEST(Exec, LoadStoreWidthsAndSignExtension)
{
    auto r = runProgram([](FunctionBuilder &b, Module &m) {
        Addr d = m.allocData("d", 32);
        b.li(reg::t0, std::int64_t(d));
        b.li(reg::t1, -2);             // 0xfffe as 16-bit
        b.sh(reg::t1, reg::t0, 0);
        b.lh(reg::t2, reg::t0, 0);     // sign-extended
        b.lhu(reg::t3, reg::t0, 0);    // zero-extended
        b.li(reg::t4, 0x80);
        b.sb(reg::t4, reg::t0, 8);
        b.lb(reg::t5, reg::t0, 8);     // -128
        b.lbu(reg::t6, reg::t0, 8);    // 128
        // Words initialised in the data segment load as written.
        m.setData64(d + 16, 1234);
        m.setData64(d + 24, 4321);
        b.ld(reg::s0, reg::t0, 16);
        b.ld(reg::s1, reg::t0, 24);
        b.add(reg::s2, reg::s0, reg::s1);
        b.sd(reg::s2, reg::t0, 16);
        b.ld(reg::s3, reg::t0, 16);    // 5555
        b.halt();
    });
    const ArchState &st = *r.finalState;
    EXPECT_EQ(st.readReg(reg::t2), -2);
    EXPECT_EQ(st.readReg(reg::t3), 0xfffe);
    EXPECT_EQ(st.readReg(reg::t5), -128);
    EXPECT_EQ(st.readReg(reg::t6), 128);
    EXPECT_EQ(st.readReg(reg::s3), 5555);
}

TEST(Exec, BranchesAndLoop)
{
    // Sum 1..10 with a loop.
    auto r = runProgram([](FunctionBuilder &b, Module &) {
        BlockId loop = b.newBlock();
        BlockId done = b.newBlock();
        b.li(reg::t0, 10);
        b.li(reg::t1, 0);
        b.jump(loop);
        b.setBlock(loop);
        b.add(reg::t1, reg::t1, reg::t0);
        b.addi(reg::t0, reg::t0, -1);
        b.bne(reg::t0, reg::zero, loop);
        b.setBlock(done);
        b.halt();
    });
    EXPECT_EQ(r.finalState->readReg(reg::t1), 55);
}

TEST(Exec, CallAndReturn)
{
    Module m("t");
    Function &callee = m.createFunction("sq");
    {
        FunctionBuilder b(callee);
        b.mul(reg::a0, reg::a0, reg::a0);
        b.ret();
    }
    Function &main = m.createFunction("main");
    {
        FunctionBuilder b(main);
        b.li(reg::a0, 7);
        b.call(callee.id());
        b.halt();
    }
    m.entryFunction(main.id());
    auto r = runFunctional(m.link());
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.finalState->readReg(reg::a0), 49);

    // A forward call: the callee is laid out after its caller.
    Module fwd("fwd");
    Function &caller = fwd.createFunction("main");
    Function &helper = fwd.createFunction("helper");
    {
        FunctionBuilder b(caller);
        b.li(reg::a0, 1);
        b.call(helper.id());
        b.halt();
    }
    {
        FunctionBuilder b(helper);
        b.addi(reg::a0, reg::a0, 99);
        b.ret();
    }
    auto rf = runFunctional(fwd.link());
    EXPECT_TRUE(rf.halted);
    EXPECT_EQ(rf.finalState->readReg(reg::a0), 100);
}

TEST(Exec, IndirectJumpThroughTable)
{
    Module m("t");
    Function &f = m.createFunction("main");
    BlockId c0, c1;
    {
        FunctionBuilder b(f);
        BlockId dispatch = b.newBlock();
        c0 = b.newBlock();
        c1 = b.newBlock();
        BlockId out = b.newBlock();
        b.jump(dispatch);
        b.setBlock(dispatch);
        // Select table entry 1.
        b.li(reg::t0, 0);  // patched below via data symbol
        b.ld(reg::t1, reg::t0, 8);
        b.jr(reg::t1, {c0, c1});
        b.setBlock(c0);
        b.li(reg::a0, 100);
        b.jump(out);
        b.setBlock(c1);
        b.li(reg::a0, 200);
        b.setBlock(out);
        b.halt();
    }
    // jr declares its possible targets as the block's successors.
    EXPECT_EQ(f.block(1).indirectSuccs(), (std::vector<BlockId>{c0, c1}));
    Addr jt = m.allocJumpTable("jt", {{f.id(), c0}, {f.id(), c1}});
    // Patch the li with the real table address.
    f.block(1).instrs()[0].imm = std::int64_t(jt);
    auto r = runFunctional(m.link());
    EXPECT_EQ(r.finalState->readReg(reg::a0), 200);
}

TEST(FunctionalSim, MaxInstrsStopsRunaway)
{
    Module m("t");
    Function &f = m.createFunction("main");
    {
        FunctionBuilder b(f);
        BlockId loop = b.newBlock();
        b.jump(loop);
        b.setBlock(loop);
        b.addi(reg::t0, reg::t0, 1);
        b.jump(loop);
    }
    FunctionalOptions opt;
    opt.maxInstrs = 1000;
    auto r = runFunctional(m.link(), opt);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.instrCount, 1000u);
}

TEST(FunctionalSim, TraceRecordsOutcomesAndProducers)
{
    auto r = runProgram(
        [](FunctionBuilder &b, Module &m) {
            Addr d = m.allocData("d", 16);
            b.li(reg::t0, std::int64_t(d));  // 0: producer of t0
            b.li(reg::t1, 5);                // 1: producer of t1
            b.sd(reg::t1, reg::t0, 0);       // 2: store
            b.ld(reg::t2, reg::t0, 0);       // 3: load (dep on 2)
            b.add(reg::t3, reg::t2, reg::t1);  // 4: deps 3 and 1
            b.halt();                        // 5
        },
        true);
    const Trace &t = r.trace;
    ASSERT_EQ(t.size(), 6u);

    // Store reads base (prod 0) and value (prod 1).
    EXPECT_EQ(t.instrs[2].prod[0], 0u);
    EXPECT_EQ(t.instrs[2].prod[1], 1u);
    // Load's memory producer is the store.
    EXPECT_EQ(t.memProd(t.instrs[3]), 2u);
    EXPECT_EQ(t.effAddr(t.instrs[3]), t.effAddr(t.instrs[2]));
    // Add depends on the load and the li.
    EXPECT_EQ(t.instrs[4].prod[0], 3u);
    EXPECT_EQ(t.instrs[4].prod[1], 1u);
    // Nothing marked taken in straight-line code.
    EXPECT_FALSE(t.instrs[0].taken());
}

TEST(FunctionalSim, TraceTakenFlagsOnBranches)
{
    auto r = runProgram(
        [](FunctionBuilder &b, Module &) {
            BlockId target = b.newBlock();
            BlockId last = b.newBlock();
            b.li(reg::t0, 1);
            b.bne(reg::t0, reg::zero, target);  // taken
            b.setBlock(target);
            b.beq(reg::t0, reg::zero, target);  // not taken
            b.setBlock(last);
            b.halt();
        },
        true);
    const Trace &t = r.trace;
    ASSERT_EQ(t.size(), 4u);
    EXPECT_TRUE(t.instrs[1].taken());
    EXPECT_FALSE(t.instrs[2].taken());
}

TEST(FunctionalSim, DeterministicAcrossRuns)
{
    auto gen = [](FunctionBuilder &b, Module &m) {
        Addr d = m.allocData("d", 64);
        BlockId loop = b.newBlock();
        BlockId done = b.newBlock();
        b.li(reg::t0, std::int64_t(d));
        b.li(reg::t1, 8);
        b.jump(loop);
        b.setBlock(loop);
        b.ld(reg::t2, reg::t0, 0);
        b.addi(reg::t2, reg::t2, 3);
        b.sd(reg::t2, reg::t0, 0);
        b.addi(reg::t1, reg::t1, -1);
        b.bne(reg::t1, reg::zero, loop);
        b.setBlock(done);
        b.halt();
    };
    auto r1 = runProgram(gen);
    auto r2 = runProgram(gen);
    EXPECT_EQ(r1.instrCount, r2.instrCount);
    EXPECT_EQ(r1.finalState->memChecksum(),
              r2.finalState->memChecksum());
}

TEST(FunctionalSim, ImageIndexLimitIsNamed)
{
    EXPECT_NO_THROW(checkImageSize(maxImageSize - 1));
    EXPECT_THROW(checkImageSize(maxImageSize), ProgramTooLarge);
}

/** An indirect transfer: its record carries the resolved target. */
bool
isIndirect(const Instruction &in)
{
    return in.op == Opcode::JR || in.op == Opcode::JALR ||
        in.op == Opcode::RET;
}

TEST(TraceRecords, SideTableAndRoundTripHoldOnEveryWorkload)
{
    for (const std::string &name : allWorkloadNames()) {
        SCOPED_TRACE(name);
        Workload w = buildWorkload(name, 0.02);
        FunctionalOptions opt;
        opt.recordTrace = true;
        const FunctionalResult r = runFunctional(w.prog, opt);
        const Trace &t = r.trace;
        ASSERT_TRUE(r.halted);
        EXPECT_EQ(t.instrs.capacity(), t.size());

        size_t sides = 0;
        for (TraceIdx i = 0; i < t.size(); ++i) {
            const DynInstr &d = t.instrs[i];
            const Instruction &in = t.staticOf(i).instr;
            // An entry exactly for memory ops and indirect transfers.
            const bool carries = in.isMem() || isIndirect(in);
            ASSERT_EQ(d.side != DynInstr::noSide, carries) << "at " << i;
            ASSERT_EQ(t.effAddr(d) != invalidAddr, carries) << "at " << i;
            if (carries) {
                ASSERT_EQ(d.side, sides) << "at " << i;
                ++sides;
            }
            // The target is where the trace goes next.
            if (isIndirect(in) && i + 1 < t.size()) {
                ASSERT_EQ(t.effAddr(d), t.staticOf(i + 1).addr) << i;
            }
            // A memory producer only on loads, and an older store.
            const TraceIdx p = t.memProd(d);
            if (p != invalidTrace) {
                ASSERT_TRUE(in.isLoad()) << "at " << i;
                ASSERT_LT(p, i);
                ASSERT_TRUE(t.staticOf(p).instr.isStore()) << "at " << i;
            }
        }
        EXPECT_EQ(t.sideSize(), sides);

        std::string payload;
        encodeTrace(t, payload);
        Trace back;
        ASSERT_TRUE(decodeTrace(payload, w.prog, back));
        ASSERT_EQ(back.size(), t.size());
        EXPECT_EQ(back.instrs.capacity(), back.size());
        EXPECT_EQ(back.sideSize(), t.sideSize());
        for (TraceIdx i = 0; i < t.size(); ++i) {
            const DynInstr &x = t.instrs[i];
            const DynInstr &y = back.instrs[i];
            ASSERT_EQ(x.imgTaken, y.imgTaken) << "at " << i;
            ASSERT_EQ(x.prod[0], y.prod[0]) << "at " << i;
            ASSERT_EQ(x.prod[1], y.prod[1]) << "at " << i;
            ASSERT_EQ(x.side, y.side) << "at " << i;
            ASSERT_EQ(t.effAddr(x), back.effAddr(y)) << "at " << i;
            ASSERT_EQ(t.memProd(x), back.memProd(y)) << "at " << i;
        }
    }
}

} // namespace
} // namespace polyflow
