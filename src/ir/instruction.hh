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

#include <array>
#include <cstddef>
#include <cstdint>

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

/** What an opcode does to control flow and memory. */
enum class OpClass : std::uint8_t {
    Alu,           //!< register result, falls through
    Load,
    Store,
    CondBranch,    //!< to targetBlock when taken
    Jump,          //!< direct jump to targetBlock
    Call,          //!< direct call to targetFunc; writes ra
    IndirectJump,  //!< through rs1
    IndirectCall,  //!< through rs1; writes ra
    Return,        //!< through ra
    Nop,
    Halt,
};

/** The registers an opcode reads. */
enum class Reads : std::uint8_t { None, Rs1, Rs1Rs2, Ra };
/** The register an opcode writes (rd writes nothing when it is r0). */
enum class Writes : std::uint8_t { None, Rd, Ra };
/** The functional unit, and so the latency, of a non-memory op. */
enum class FuClass : std::uint8_t { Int, Mul, Div };

/** The facts of one opcode: a row of opTable. */
struct OpInfo
{
    Opcode op;
    const char *mnemonic;
    OpClass cls;
    Reads reads;
    Writes writes;
    /** Bytes a load or store moves; 0 for every other class. */
    std::uint8_t memBytes;
    /** True for a load that sign-extends what it reads. */
    bool loadSigned;
    FuClass fu;
};

/** Every opcode's facts, one row per Opcode in declaration order.
 *  The Instruction predicates read it; exec.cc's step() is the
 *  semantics it must agree with (ExecProps.OpcodeTableMatchesStep). */
inline constexpr auto opTable = []() consteval {
    using enum OpClass;
    using enum FuClass;
    using O = Opcode;
    using R = Reads;
    using W = Writes;
    return std::to_array<OpInfo>({
        {O::ADD, "add", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::SUB, "sub", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::MUL, "mul", Alu, R::Rs1Rs2, W::Rd, 0, false, Mul},
        {O::DIVU, "divu", Alu, R::Rs1Rs2, W::Rd, 0, false, Div},
        {O::REMU, "remu", Alu, R::Rs1Rs2, W::Rd, 0, false, Div},
        {O::AND, "and", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::OR, "or", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::XOR, "xor", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::SLL, "sll", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::SRL, "srl", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::SRA, "sra", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::SLT, "slt", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::SLTU, "sltu", Alu, R::Rs1Rs2, W::Rd, 0, false, Int},
        {O::ADDI, "addi", Alu, R::Rs1, W::Rd, 0, false, Int},
        {O::ANDI, "andi", Alu, R::Rs1, W::Rd, 0, false, Int},
        {O::ORI, "ori", Alu, R::Rs1, W::Rd, 0, false, Int},
        {O::XORI, "xori", Alu, R::Rs1, W::Rd, 0, false, Int},
        {O::SLLI, "slli", Alu, R::Rs1, W::Rd, 0, false, Int},
        {O::SRLI, "srli", Alu, R::Rs1, W::Rd, 0, false, Int},
        {O::SRAI, "srai", Alu, R::Rs1, W::Rd, 0, false, Int},
        {O::SLTI, "slti", Alu, R::Rs1, W::Rd, 0, false, Int},
        {O::LUI, "lui", Alu, R::None, W::Rd, 0, false, Int},
        {O::LB, "lb", Load, R::Rs1, W::Rd, 1, true, Int},
        {O::LBU, "lbu", Load, R::Rs1, W::Rd, 1, false, Int},
        {O::LH, "lh", Load, R::Rs1, W::Rd, 2, true, Int},
        {O::LHU, "lhu", Load, R::Rs1, W::Rd, 2, false, Int},
        {O::LW, "lw", Load, R::Rs1, W::Rd, 4, true, Int},
        {O::LWU, "lwu", Load, R::Rs1, W::Rd, 4, false, Int},
        {O::LD, "ld", Load, R::Rs1, W::Rd, 8, false, Int},
        {O::SB, "sb", Store, R::Rs1Rs2, W::None, 1, false, Int},
        {O::SH, "sh", Store, R::Rs1Rs2, W::None, 2, false, Int},
        {O::SW, "sw", Store, R::Rs1Rs2, W::None, 4, false, Int},
        {O::SD, "sd", Store, R::Rs1Rs2, W::None, 8, false, Int},
        {O::BEQ, "beq", CondBranch, R::Rs1Rs2, W::None, 0, false, Int},
        {O::BNE, "bne", CondBranch, R::Rs1Rs2, W::None, 0, false, Int},
        {O::BLT, "blt", CondBranch, R::Rs1Rs2, W::None, 0, false, Int},
        {O::BGE, "bge", CondBranch, R::Rs1Rs2, W::None, 0, false, Int},
        {O::BLTZ, "bltz", CondBranch, R::Rs1, W::None, 0, false, Int},
        {O::BGEZ, "bgez", CondBranch, R::Rs1, W::None, 0, false, Int},
        {O::J, "j", Jump, R::None, W::None, 0, false, Int},
        {O::JAL, "jal", Call, R::None, W::Ra, 0, false, Int},
        {O::JR, "jr", IndirectJump, R::Rs1, W::None, 0, false, Int},
        {O::JALR, "jalr", IndirectCall, R::Rs1, W::Ra, 0, false, Int},
        {O::RET, "ret", Return, R::Ra, W::None, 0, false, Int},
        {O::NOP, "nop", Nop, R::None, W::None, 0, false, Int},
        {O::HALT, "halt", Halt, R::None, W::None, 0, false, Int},
    });
}();
static_assert(opTable.size() == std::size_t(Opcode::NumOpcodes));
static_assert([]() consteval {
    for (std::size_t k = 0; k < opTable.size(); ++k) {
        if (opTable[k].op != Opcode(k))
            return false;
    }
    return true;
}(), "opTable rows must follow Opcode's order");

/** The opTable row of @p op. */
constexpr const OpInfo &
opInfo(Opcode op)
{
    return opTable[std::size_t(op)];
}

/** Human-readable mnemonic for an opcode. */
constexpr const char *
opcodeName(Opcode op)
{
    return op < Opcode::NumOpcodes ? opInfo(op).mnemonic : "???";
}

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

    /** @name Classification: reads of the opcode's opTable row @{ */
    OpClass cls() const { return opInfo(op).cls; }
    bool isCondBranch() const { return cls() == OpClass::CondBranch; }
    bool isDirectJump() const { return cls() == OpClass::Jump; }
    bool isIndirectJump() const { return cls() == OpClass::IndirectJump; }
    bool isDirectCall() const { return cls() == OpClass::Call; }
    bool isIndirectCall() const { return cls() == OpClass::IndirectCall; }
    bool isCall() const { return isDirectCall() || isIndirectCall(); }
    bool isReturn() const { return cls() == OpClass::Return; }
    bool isHalt() const { return cls() == OpClass::Halt; }
    bool isLoad() const { return cls() == OpClass::Load; }
    bool isStore() const { return cls() == OpClass::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    /** True if this instruction must end a basic block. Calls do
     *  not (standard intraprocedural CFG convention); everything
     *  else that redirects fetch does. */
    bool
    isTerminator() const
    {
        const OpClass c = cls();
        return c == OpClass::CondBranch || c == OpClass::Jump ||
            c == OpClass::IndirectJump || c == OpClass::Return ||
            c == OpClass::Halt;
    }
    /** @} */

    /** Bytes moved by a load/store (0 for non-memory ops). */
    int memBytes() const { return opInfo(op).memBytes; }
    /** True if the load sign-extends its result. */
    bool loadSigned() const { return opInfo(op).loadSigned; }

    /** Destination register written, or -1 if none. */
    int
    destReg() const
    {
        switch (opInfo(op).writes) {
          case Writes::Rd: return rd == reg::zero ? -1 : rd;
          case Writes::Ra: return reg::ra;
          default: return -1;
        }
    }
    /** Source registers read, r0 left out; count returned, regs in
     *  out[0..1]. */
    int
    srcRegs(RegId out[2]) const
    {
        int n = 0;
        auto add = [&](RegId r) {
            if (r != reg::zero)
                out[n++] = r;
        };
        switch (opInfo(op).reads) {
          case Reads::Rs1Rs2:
            add(rs1);
            add(rs2);
            break;
          case Reads::Rs1:
            add(rs1);
            break;
          case Reads::Ra:
            add(reg::ra);
            break;
          default:
            break;
        }
        return n;
    }
};

} // namespace polyflow

#endif // POLYFLOW_IR_INSTRUCTION_HH
