#include "isa/exec.hh"

#include <stdexcept>

namespace polyflow {

ExecOut
step(const LinkedInstr &li, ArchState &st)
{
    const Instruction &in = li.instr;
    ExecOut out;
    out.nextPc = li.addr + instrBytes;

    auto rs1 = [&] { return st.readReg(in.rs1); };
    auto rs2 = [&] { return st.readReg(in.rs2); };
    auto u1 = [&] { return std::uint64_t(st.readReg(in.rs1)); };
    auto u2 = [&] { return std::uint64_t(st.readReg(in.rs2)); };
    auto wr = [&](std::int64_t v) { st.writeReg(in.rd, v); };
    auto branch = [&](bool cond) {
        if (cond) {
            out.nextPc = li.targetAddr;
            out.taken = true;
        }
    };
    auto signExtend = [](std::uint64_t v, int bytes) -> std::int64_t {
        int shift = 64 - 8 * bytes;
        return std::int64_t(v << shift) >> shift;
    };
    // Wrap-around two's-complement arithmetic: compute in unsigned
    // (where overflow is defined) and cast back.
    auto addW = [](std::int64_t a, std::int64_t b) {
        return std::int64_t(std::uint64_t(a) + std::uint64_t(b));
    };
    auto subW = [](std::int64_t a, std::int64_t b) {
        return std::int64_t(std::uint64_t(a) - std::uint64_t(b));
    };
    auto mulW = [](std::int64_t a, std::int64_t b) {
        return std::int64_t(std::uint64_t(a) * std::uint64_t(b));
    };
    // Memory at rs1 + imm; the widths and extensions are this
    // switch's own, so the opcode table is checked against them.
    auto load = [&](int bytes) {
        out.effAddr = Addr(addW(rs1(), in.imm));
        return st.readMem(out.effAddr, bytes);
    };
    auto store = [&](int bytes) {
        out.effAddr = Addr(addW(rs1(), in.imm));
        st.writeMem(out.effAddr, std::uint64_t(rs2()), bytes);
    };

    switch (in.op) {
      case Opcode::ADD: wr(addW(rs1(), rs2())); break;
      case Opcode::SUB: wr(subW(rs1(), rs2())); break;
      case Opcode::MUL: wr(mulW(rs1(), rs2())); break;
      case Opcode::DIVU:
        wr(u2() == 0 ? -1 : std::int64_t(u1() / u2()));
        break;
      case Opcode::REMU:
        wr(u2() == 0 ? rs1() : std::int64_t(u1() % u2()));
        break;
      case Opcode::AND: wr(rs1() & rs2()); break;
      case Opcode::OR: wr(rs1() | rs2()); break;
      case Opcode::XOR: wr(rs1() ^ rs2()); break;
      case Opcode::SLL: wr(std::int64_t(u1() << (u2() & 63))); break;
      case Opcode::SRL: wr(std::int64_t(u1() >> (u2() & 63))); break;
      case Opcode::SRA: wr(rs1() >> (u2() & 63)); break;
      case Opcode::SLT: wr(rs1() < rs2() ? 1 : 0); break;
      case Opcode::SLTU: wr(u1() < u2() ? 1 : 0); break;

      case Opcode::ADDI: wr(addW(rs1(), in.imm)); break;
      case Opcode::ANDI: wr(rs1() & in.imm); break;
      case Opcode::ORI: wr(rs1() | in.imm); break;
      case Opcode::XORI: wr(rs1() ^ in.imm); break;
      case Opcode::SLLI: wr(std::int64_t(u1() << (in.imm & 63))); break;
      case Opcode::SRLI: wr(std::int64_t(u1() >> (in.imm & 63))); break;
      case Opcode::SRAI: wr(rs1() >> (in.imm & 63)); break;
      case Opcode::SLTI: wr(rs1() < in.imm ? 1 : 0); break;
      case Opcode::LUI: wr(in.imm); break;

      case Opcode::LB: wr(signExtend(load(1), 1)); break;
      case Opcode::LBU: wr(std::int64_t(load(1))); break;
      case Opcode::LH: wr(signExtend(load(2), 2)); break;
      case Opcode::LHU: wr(std::int64_t(load(2))); break;
      case Opcode::LW: wr(signExtend(load(4), 4)); break;
      case Opcode::LWU: wr(std::int64_t(load(4))); break;
      case Opcode::LD: wr(std::int64_t(load(8))); break;

      case Opcode::SB: store(1); break;
      case Opcode::SH: store(2); break;
      case Opcode::SW: store(4); break;
      case Opcode::SD: store(8); break;

      case Opcode::BEQ: branch(rs1() == rs2()); break;
      case Opcode::BNE: branch(rs1() != rs2()); break;
      case Opcode::BLT: branch(rs1() < rs2()); break;
      case Opcode::BGE: branch(rs1() >= rs2()); break;
      case Opcode::BLTZ: branch(rs1() < 0); break;
      case Opcode::BGEZ: branch(rs1() >= 0); break;

      case Opcode::J:
        out.nextPc = li.targetAddr;
        out.taken = true;
        break;
      case Opcode::JAL:
        st.writeReg(reg::ra, std::int64_t(li.addr + instrBytes));
        out.nextPc = li.targetAddr;
        out.taken = true;
        break;
      case Opcode::JR:
        out.nextPc = Addr(rs1());
        out.indirectTarget = out.nextPc;
        out.taken = true;
        break;
      case Opcode::JALR: {
        Addr target = Addr(rs1());
        st.writeReg(reg::ra, std::int64_t(li.addr + instrBytes));
        out.nextPc = target;
        out.indirectTarget = target;
        out.taken = true;
        break;
      }
      case Opcode::RET:
        out.nextPc = Addr(st.readReg(reg::ra));
        out.indirectTarget = out.nextPc;
        out.taken = true;
        break;

      case Opcode::NOP:
        break;
      case Opcode::HALT:
        out.halted = true;
        break;

      default:
        throw std::runtime_error("unimplemented opcode");
    }
    return out;
}

} // namespace polyflow
