/**
 * @file
 * FunctionBuilder: a fluent emitter for constructing PRISC functions
 * in C++. This is the main authoring interface used by the synthetic
 * workloads and by tests.
 */

#ifndef POLYFLOW_IR_BUILDER_HH
#define POLYFLOW_IR_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.hh"
#include "ir/types.hh"

namespace polyflow {

/**
 * Emits instructions into the basic blocks of one function. The
 * builder tracks a current block; control-flow emitters take block
 * ids created up front with newBlock().
 */
class FunctionBuilder
{
  public:
    explicit FunctionBuilder(Function &fn) : _fn(fn)
    {
        _cur = _fn.numBlocks() ? 0 : _fn.createBlock();
    }

    /** Create a block without switching to it. */
    BlockId newBlock(const std::string &name = "")
    {
        return _fn.createBlock(name);
    }

    /** Switch the emission point to @p b. */
    void setBlock(BlockId b) { _cur = b; }

    /** @name ALU emitters @{ */
    void add(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::ADD, rd, rs1, rs2);
    }
    void sub(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::SUB, rd, rs1, rs2);
    }
    void mul(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::MUL, rd, rs1, rs2);
    }
    void divu(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::DIVU, rd, rs1, rs2);
    }
    void remu(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::REMU, rd, rs1, rs2);
    }
    void and_(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::AND, rd, rs1, rs2);
    }
    void or_(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::OR, rd, rs1, rs2);
    }
    void xor_(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::XOR, rd, rs1, rs2);
    }
    void sll(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::SLL, rd, rs1, rs2);
    }
    void srl(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::SRL, rd, rs1, rs2);
    }
    void sra(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::SRA, rd, rs1, rs2);
    }
    void slt(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::SLT, rd, rs1, rs2);
    }
    void sltu(RegId rd, RegId rs1, RegId rs2)
    {
        emitRRR(Opcode::SLTU, rd, rs1, rs2);
    }
    void addi(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::ADDI, rd, rs1, imm);
    }
    void andi(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::ANDI, rd, rs1, imm);
    }
    void ori(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::ORI, rd, rs1, imm);
    }
    void xori(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::XORI, rd, rs1, imm);
    }
    void slli(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::SLLI, rd, rs1, imm);
    }
    void srli(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::SRLI, rd, rs1, imm);
    }
    void srai(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::SRAI, rd, rs1, imm);
    }
    void slti(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::SLTI, rd, rs1, imm);
    }
    /** Load a full 64-bit immediate (single-instruction in PRISC). */
    void li(RegId rd, std::int64_t imm)
    {
        Instruction i;
        i.op = Opcode::LUI;
        i.rd = rd;
        i.imm = imm;
        emit(i);
    }
    void mov(RegId rd, RegId rs) { addi(rd, rs, 0); }
    void nop() { emit({}); }
    /** @} */

    /** @name Memory emitters (addr = rs1 + imm) @{ */
    void lb(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::LB, rd, rs1, imm);
    }
    void lbu(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::LBU, rd, rs1, imm);
    }
    void lh(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::LH, rd, rs1, imm);
    }
    void lhu(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::LHU, rd, rs1, imm);
    }
    void lw(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::LW, rd, rs1, imm);
    }
    void lwu(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::LWU, rd, rs1, imm);
    }
    void ld(RegId rd, RegId rs1, std::int64_t imm)
    {
        emitRRI(Opcode::LD, rd, rs1, imm);
    }
    void sb(RegId rval, RegId rbase, std::int64_t imm)
    {
        emitStore(Opcode::SB, rval, rbase, imm);
    }
    void sh(RegId rval, RegId rbase, std::int64_t imm)
    {
        emitStore(Opcode::SH, rval, rbase, imm);
    }
    void sw(RegId rval, RegId rbase, std::int64_t imm)
    {
        emitStore(Opcode::SW, rval, rbase, imm);
    }
    void sd(RegId rval, RegId rbase, std::int64_t imm)
    {
        emitStore(Opcode::SD, rval, rbase, imm);
    }
    /** @} */

    /** @name Control-flow emitters @{ */
    void beq(RegId rs1, RegId rs2, BlockId target)
    {
        emitBranch(Opcode::BEQ, rs1, rs2, target);
    }
    void bne(RegId rs1, RegId rs2, BlockId target)
    {
        emitBranch(Opcode::BNE, rs1, rs2, target);
    }
    void blt(RegId rs1, RegId rs2, BlockId target)
    {
        emitBranch(Opcode::BLT, rs1, rs2, target);
    }
    void bge(RegId rs1, RegId rs2, BlockId target)
    {
        emitBranch(Opcode::BGE, rs1, rs2, target);
    }
    void bltz(RegId rs1, BlockId target)
    {
        emitBranch(Opcode::BLTZ, rs1, 0, target);
    }
    void bgez(RegId rs1, BlockId target)
    {
        emitBranch(Opcode::BGEZ, rs1, 0, target);
    }
    void jump(BlockId target)
    {
        Instruction i;
        i.op = Opcode::J;
        i.targetBlock = target;
        emit(i);
        _fn.block(_cur).takenSucc(target);
    }
    void call(FuncId target)
    {
        Instruction i;
        i.op = Opcode::JAL;
        i.targetFunc = target;
        emit(i);
    }
    void callIndirect(RegId rs1)
    {
        Instruction i;
        i.op = Opcode::JALR;
        i.rs1 = rs1;
        emit(i);
    }
    /** Indirect jump; @p targets declares the possible blocks. */
    void jr(RegId rs1, const std::vector<BlockId> &targets)
    {
        Instruction i;
        i.op = Opcode::JR;
        i.rs1 = rs1;
        emit(i);
        for (BlockId t : targets)
            _fn.block(_cur).addIndirectSucc(t);
    }
    void ret()
    {
        Instruction i;
        i.op = Opcode::RET;
        emit(i);
    }
    void halt()
    {
        Instruction i;
        i.op = Opcode::HALT;
        emit(i);
    }
    /** @} */

    /** Append a raw instruction to the current block. */
    void emit(const Instruction &i) { _fn.block(_cur).append(i); }

  private:
    void
    emitRRR(Opcode op, RegId rd, RegId rs1, RegId rs2)
    {
        Instruction i;
        i.op = op;
        i.rd = rd;
        i.rs1 = rs1;
        i.rs2 = rs2;
        emit(i);
    }

    void
    emitRRI(Opcode op, RegId rd, RegId rs1, std::int64_t imm)
    {
        Instruction i;
        i.op = op;
        i.rd = rd;
        i.rs1 = rs1;
        i.imm = imm;
        emit(i);
    }

    void
    emitStore(Opcode op, RegId rval, RegId rbase, std::int64_t imm)
    {
        Instruction i;
        i.op = op;
        i.rs1 = rbase;  // address base
        i.rs2 = rval;   // stored value
        i.imm = imm;
        emit(i);
    }

    void
    emitBranch(Opcode op, RegId rs1, RegId rs2, BlockId target)
    {
        Instruction i;
        i.op = op;
        i.rs1 = rs1;
        i.rs2 = rs2;
        i.targetBlock = target;
        emit(i);
        _fn.block(_cur).takenSucc(target);
    }

    Function &_fn;
    BlockId _cur;
};

} // namespace polyflow

#endif // POLYFLOW_IR_BUILDER_HH
