/**
 * @file
 * Unit tests for the IR: instructions, blocks, functions, modules,
 * the builder and the linker.
 */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/module.hh"

namespace polyflow {
namespace {

TEST(Instruction, Classification)
{
    Instruction i;
    i.op = Opcode::BEQ;
    EXPECT_TRUE(i.isCondBranch());
    EXPECT_TRUE(i.isTerminator());
    EXPECT_FALSE(i.isCall());

    i.op = Opcode::JAL;
    EXPECT_TRUE(i.isCall());
    EXPECT_FALSE(i.isTerminator());  // calls do not end blocks

    i.op = Opcode::LD;
    EXPECT_TRUE(i.isLoad());
    EXPECT_TRUE(i.isMem());
    EXPECT_EQ(i.memBytes(), 8);

    i.op = Opcode::LW;
    EXPECT_TRUE(i.loadSigned());
    EXPECT_EQ(i.memBytes(), 4);

    i.op = Opcode::LBU;
    EXPECT_EQ(i.memBytes(), 1);
    EXPECT_FALSE(i.loadSigned());

    i.op = Opcode::SW;
    EXPECT_TRUE(i.isStore());
    EXPECT_EQ(i.memBytes(), 4);
    EXPECT_EQ(i.destReg(), -1);

    i.op = Opcode::JR;
    EXPECT_TRUE(i.isIndirectJump());
    EXPECT_TRUE(i.isTerminator());

    i.op = Opcode::RET;
    EXPECT_TRUE(i.isReturn());
    EXPECT_TRUE(i.isTerminator());
}

TEST(Instruction, DestAndSourceRegs)
{
    Instruction i;
    i.op = Opcode::ADD;
    i.rd = 5;
    i.rs1 = 6;
    i.rs2 = 7;
    EXPECT_EQ(i.destReg(), 5);
    RegId srcs[2];
    EXPECT_EQ(i.srcRegs(srcs), 2);
    EXPECT_EQ(srcs[0], 6);
    EXPECT_EQ(srcs[1], 7);

    // r0 sources and destinations are dropped.
    i.rd = reg::zero;
    i.rs1 = reg::zero;
    EXPECT_EQ(i.destReg(), -1);
    EXPECT_EQ(i.srcRegs(srcs), 1);
    EXPECT_EQ(srcs[0], 7);

    // Stores read base and value, write nothing.
    Instruction st;
    st.op = Opcode::SD;
    st.rs1 = 3;
    st.rs2 = 4;
    EXPECT_EQ(st.destReg(), -1);
    EXPECT_EQ(st.srcRegs(srcs), 2);

    // Calls write the return-address register.
    Instruction call;
    call.op = Opcode::JAL;
    EXPECT_EQ(call.destReg(), reg::ra);

    // Returns read it.
    Instruction ret;
    ret.op = Opcode::RET;
    EXPECT_EQ(ret.srcRegs(srcs), 1);
    EXPECT_EQ(srcs[0], reg::ra);
}

TEST(Function, FallThroughResolution)
{
    Module m("t");
    Function &f = m.createFunction("f");
    FunctionBuilder b(f);
    BlockId second = b.newBlock();
    BlockId third = b.newBlock();
    b.beq(reg::a0, reg::zero, third);
    b.setBlock(second);
    b.addi(reg::a0, reg::a0, 1);
    b.setBlock(third);
    b.halt();

    f.resolveFallThroughs();
    EXPECT_EQ(f.block(0).fallSucc(), second);
    EXPECT_EQ(f.block(0).takenSucc(), third);
    EXPECT_EQ(f.block(second).fallSucc(), third);
}

TEST(Function, ValidateRejectsEmptyBlock)
{
    Module m("t");
    Function &f = m.createFunction("f");
    FunctionBuilder b(f);
    b.newBlock();  // never filled
    b.halt();
    EXPECT_THROW(f.validate(), std::runtime_error);
}

TEST(Function, ValidateRejectsMissingTerminator)
{
    Module m("t");
    Function &f = m.createFunction("f");
    FunctionBuilder b(f);
    b.addi(reg::a0, reg::a0, 1);  // last block, no terminator
    EXPECT_THROW(f.resolveFallThroughs(), std::runtime_error);
}

TEST(Function, ValidateRejectsIndirectWithoutTargets)
{
    Module m("t");
    Function &f = m.createFunction("f");
    FunctionBuilder b(f);
    b.jr(reg::a0, {});
    EXPECT_THROW(f.validate(), std::runtime_error);
}

TEST(Module, LinkAssignsSequentialAddresses)
{
    Module m("t");
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        b.addi(reg::a0, reg::zero, 1);
        b.addi(reg::a0, reg::a0, 2);
        b.halt();
    }
    LinkedProgram p = m.link();
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.at(0).addr, m.codeBase());
    EXPECT_EQ(p.at(1).addr, m.codeBase() + instrBytes);
    EXPECT_EQ(p.entryAddr(), m.codeBase());
    EXPECT_TRUE(p.at(0).blockStart);
    EXPECT_FALSE(p.at(1).blockStart);
    EXPECT_EQ(p.idxOf(p.at(2).addr), 2u);
}

TEST(Module, LinkResolvesBranchAndCallTargets)
{
    Module m("t");
    Function &g = m.createFunction("g");
    {
        FunctionBuilder b(g);
        b.ret();
    }
    Function &f = m.createFunction("f");
    BlockId target;
    {
        FunctionBuilder b(f);
        target = b.newBlock();
        b.call(g.id());
        b.beq(reg::a0, reg::zero, target);
        b.setBlock(target);
        b.halt();
    }
    m.entryFunction(f.id());
    LinkedProgram p = m.link();

    ImageIdx callIdx = p.idxOf(f.startAddr());
    EXPECT_EQ(p.at(callIdx).targetAddr, g.startAddr());
    ImageIdx branchIdx = callIdx + 1;
    EXPECT_EQ(p.at(branchIdx).targetAddr, f.block(target).startAddr());
}

TEST(Module, FunctionPaddingSeparatesCode)
{
    Module m("t");
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        b.halt();
    }
    f.padding(256);
    Function &g = m.createFunction("g");
    {
        FunctionBuilder b(g);
        b.halt();
    }
    m.link();
    EXPECT_EQ(g.startAddr(), f.startAddr() + instrBytes + 256);
}

TEST(Module, FindIdxNamesOnlyInstructionAddresses)
{
    Module m("t");
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        b.nop();
        b.halt();
    }
    f.padding(3 * instrBytes);
    Function &g = m.createFunction("g");
    {
        FunctionBuilder b(g);
        b.halt();
    }
    const LinkedProgram p = m.link();
    for (ImageIdx i = 0; i < p.size(); ++i)
        EXPECT_EQ(p.findIdx(p.at(i).addr), i);
    EXPECT_EQ(p.findIdx(p.codeBegin() - instrBytes), maxImageSize);
    EXPECT_EQ(p.findIdx(0), maxImageSize);
    EXPECT_EQ(p.findIdx(p.codeEnd()), maxImageSize);
    EXPECT_EQ(p.findIdx(p.codeBegin() + 1), maxImageSize);
    EXPECT_EQ(p.findIdx(p.codeBegin() + 2), maxImageSize);
    for (Addr a = p.at(1).addr + instrBytes; a < g.startAddr();
         a += instrBytes)
        EXPECT_EQ(p.findIdx(a), maxImageSize) << "padding at " << a;
    EXPECT_THROW(p.idxOf(p.codeEnd()), std::runtime_error);
}

TEST(Module, PaddingMustBeWholeInstructions)
{
    Module m("t");
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        b.halt();
    }
    f.padding(instrBytes + 2);
    EXPECT_THROW(m.link(), std::runtime_error);
}

TEST(Module, DataAllocationAndJumpTables)
{
    Module m("t");
    Addr a = m.allocData("a", 12);
    Addr bAddr = m.allocData("b", 8);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_GE(bAddr, a + 12);
    EXPECT_EQ(m.dataAddr("a"), a);
    EXPECT_THROW(m.dataAddr("nope"), std::runtime_error);
    EXPECT_THROW(m.allocData("a", 8), std::runtime_error);

    Function &f = m.createFunction("f");
    BlockId t1;
    {
        FunctionBuilder b(f);
        t1 = b.newBlock();
        b.jump(t1);
        b.setBlock(t1);
        b.halt();
    }
    Addr jt = m.allocJumpTable("jt", {{f.id(), t1}});
    LinkedProgram p = m.link();

    // The jump table entry must hold the block's flat address.
    bool found = false;
    for (const DataInit &di : p.dataInits()) {
        if (di.addr == jt) {
            ASSERT_EQ(di.bytes.size(), 8u);
            std::uint64_t v = 0;
            for (int i = 0; i < 8; ++i)
                v |= std::uint64_t(di.bytes[i]) << (8 * i);
            EXPECT_EQ(v, f.block(t1).startAddr());
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Module, DuplicateTriggerRejectedByLink)
{
    // Calls may appear anywhere in a block; link succeeds and the
    // call gets the return-address fall-through.
    Module m("t");
    Function &g = m.createFunction("g");
    {
        FunctionBuilder b(g);
        b.ret();
    }
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        b.call(g.id());
        b.call(g.id());
        b.halt();
    }
    m.entryFunction(f.id());
    LinkedProgram p = m.link();
    EXPECT_EQ(p.size(), 4u);
}

TEST(Builder, EmitsExpectedShapes)
{
    Module m("t");
    Function &f = m.createFunction("f");
    FunctionBuilder b(f);
    b.li(reg::t0, 0x123456789abcdef0);
    b.ld(reg::t1, reg::t0, 16);
    b.sd(reg::t1, reg::t0, 24);
    b.halt();

    const auto &ins = f.block(0).instrs();
    ASSERT_EQ(ins.size(), 4u);
    EXPECT_EQ(ins[0].op, Opcode::LUI);
    EXPECT_EQ(ins[0].imm, 0x123456789abcdef0);
    EXPECT_EQ(ins[1].op, Opcode::LD);
    EXPECT_EQ(ins[1].rs1, reg::t0);
    EXPECT_EQ(ins[2].op, Opcode::SD);
    EXPECT_EQ(ins[2].rs2, reg::t1);  // stored value
    EXPECT_EQ(ins[2].rs1, reg::t0);  // base
}

} // namespace
} // namespace polyflow
