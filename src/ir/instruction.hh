/**
 * @file
 * The PRISC instruction definition.
 *
 * PRISC is the compact 64-bit RISC ISA this repository uses in place of
 * the paper's 64-bit MIPS variant. Each instruction is a fixed-size
 * record; branch and call targets are symbolic (block / function ids)
 * until Module::link() resolves them to flat addresses.
 */

#ifndef POLYFLOW_IR_INSTRUCTION_HH
#define POLYFLOW_IR_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "ir/types.hh"

namespace polyflow {

/** Every operation in the PRISC ISA. */
enum class Opcode : std::uint8_t {
    // Register-register ALU.
    ADD, SUB, MUL, DIVU, REMU, AND, OR, XOR,
    SLL, SRL, SRA, SLT, SLTU,
    // Register-immediate ALU.
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI,
    LUI,
    // Loads (sign- and zero-extending).
    LB, LBU, LH, LHU, LW, LWU, LD,
    // Stores.
    SB, SH, SW, SD,
    // Conditional branches (rs1 vs rs2, or rs1 vs zero).
    BEQ, BNE, BLT, BGE, BLTZ, BGEZ,
    // Unconditional control flow.
    J,     //!< direct jump (intra-function, to a block)
    JAL,   //!< direct call (to a function); writes ra
    JR,    //!< indirect jump through rs1 (e.g. switch tables)
    JALR,  //!< indirect call through rs1; writes ra
    RET,   //!< return through ra
    // Misc.
    NOP,
    HALT,  //!< stop the program
    NumOpcodes,
};

/** Human-readable mnemonic for an opcode. */
const char *opcodeName(Opcode op);

/**
 * One PRISC instruction. Targets are symbolic until link time:
 * conditional branches and J name a BlockId in the same function;
 * JAL names a FuncId. After linking, the resolved flat address
 * lives in LinkedInstr::targetAddr.
 */
struct Instruction
{
    Opcode op = Opcode::NOP;
    RegId rd = 0;
    RegId rs1 = 0;
    RegId rs2 = 0;
    std::int64_t imm = 0;

    /** Branch / direct-jump target block (invalidBlock if none). */
    BlockId targetBlock = invalidBlock;
    /** Direct-call target function (invalidFunc if none). */
    FuncId targetFunc = invalidFunc;

    /** @name Classification helpers @{ */
    bool isCondBranch() const;
    bool isDirectJump() const { return op == Opcode::J; }
    bool isIndirectJump() const { return op == Opcode::JR; }
    bool isCall() const
    {
        return op == Opcode::JAL || op == Opcode::JALR;
    }
    bool isReturn() const { return op == Opcode::RET; }
    bool isHalt() const { return op == Opcode::HALT; }
    bool isLoad() const;
    bool isStore() const;
    bool isMem() const { return isLoad() || isStore(); }
    /** True if this instruction must end a basic block. */
    bool isTerminator() const;
    /** True for any instruction that redirects fetch when taken. */
    bool isControl() const
    {
        return isCondBranch() || isDirectJump() || isIndirectJump() ||
            isCall() || isReturn() || isHalt();
    }
    /** @} */

    /** Bytes moved by a load/store (0 for non-memory ops). */
    int memBytes() const;
    /** True if the load sign-extends its result. */
    bool loadSigned() const;

    /** Destination register written, or -1 if none. */
    int destReg() const;
    /** Source registers read; count returned, regs in out[0..1]. */
    int srcRegs(RegId out[2]) const;

    /** Mnemonic text, e.g. "add r1, r2, r3"; targets print as
     *  block / function ids ("bb7", "fn2"). */
    std::string toString() const;
};

} // namespace polyflow

#endif // POLYFLOW_IR_INSTRUCTION_HH
