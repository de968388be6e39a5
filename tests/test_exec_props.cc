/**
 * @file
 * Exhaustive instruction-semantics property tests: every ALU,
 * shift, comparison, branch and memory opcode is checked against a
 * host-side oracle over many random operand pairs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <random>

#include "ir/builder.hh"
#include "isa/exec.hh"
#include "isa/functional_sim.hh"
#include "workloads/wl_common.hh"

namespace polyflow {
namespace {

using I64 = std::int64_t;
using U64 = std::uint64_t;

/** Run "li a0, x; li a1, y; <op> a2, a0, a1; halt" and read a2. */
I64
runBinop(Opcode op, I64 x, I64 y)
{
    Module m("t");
    Function &f = m.createFunction("main");
    FunctionBuilder b(f);
    b.li(reg::a0, x);
    b.li(reg::a1, y);
    Instruction in;
    in.op = op;
    in.rd = reg::a2;
    in.rs1 = reg::a0;
    in.rs2 = reg::a1;
    b.emit(in);
    b.halt();
    auto r = runFunctional(m.link());
    return r.finalState->readReg(reg::a2);
}

/** Run "li a0, x; <op> a2, a0, imm; halt" and read a2. */
I64
runImmop(Opcode op, I64 x, I64 imm)
{
    Module m("t");
    Function &f = m.createFunction("main");
    FunctionBuilder b(f);
    b.li(reg::a0, x);
    Instruction in;
    in.op = op;
    in.rd = reg::a2;
    in.rs1 = reg::a0;
    in.imm = imm;
    b.emit(in);
    b.halt();
    auto r = runFunctional(m.link());
    return r.finalState->readReg(reg::a2);
}

struct BinCase
{
    Opcode op;
    std::function<I64(I64, I64)> oracle;
    const char *name;
};

TEST(ExecProps, BinaryOpsMatchOracle)
{
    const BinCase cases[] = {
        {Opcode::ADD, [](I64 a, I64 b) { return I64(U64(a) + U64(b)); },
         "add"},
        {Opcode::SUB, [](I64 a, I64 b) { return I64(U64(a) - U64(b)); },
         "sub"},
        {Opcode::MUL, [](I64 a, I64 b) { return I64(U64(a) * U64(b)); },
         "mul"},
        {Opcode::DIVU,
         [](I64 a, I64 b) {
             return b == 0 ? I64(-1) : I64(U64(a) / U64(b));
         },
         "divu"},
        {Opcode::REMU,
         [](I64 a, I64 b) {
             return b == 0 ? a : I64(U64(a) % U64(b));
         },
         "remu"},
        {Opcode::AND, [](I64 a, I64 b) { return a & b; }, "and"},
        {Opcode::OR, [](I64 a, I64 b) { return a | b; }, "or"},
        {Opcode::XOR, [](I64 a, I64 b) { return a ^ b; }, "xor"},
        {Opcode::SLL,
         [](I64 a, I64 b) { return I64(U64(a) << (U64(b) & 63)); },
         "sll"},
        {Opcode::SRL,
         [](I64 a, I64 b) { return I64(U64(a) >> (U64(b) & 63)); },
         "srl"},
        {Opcode::SRA,
         [](I64 a, I64 b) { return a >> (U64(b) & 63); }, "sra"},
        {Opcode::SLT,
         [](I64 a, I64 b) { return I64(a < b ? 1 : 0); }, "slt"},
        {Opcode::SLTU,
         [](I64 a, I64 b) { return I64(U64(a) < U64(b) ? 1 : 0); },
         "sltu"},
    };
    WlRng rng(0xabc);
    for (const BinCase &c : cases) {
        for (int i = 0; i < 24; ++i) {
            I64 x = I64(rng.next());
            I64 y = I64(rng.next());
            if (i % 4 == 0)
                y &= 0xff;  // small operands too
            if (i % 7 == 0)
                y = 0;      // and zero
            EXPECT_EQ(runBinop(c.op, x, y), c.oracle(x, y))
                << c.name << "(" << x << ", " << y << ")";
        }
    }
}

TEST(ExecProps, ImmediateOpsMatchOracle)
{
    struct ImmCase
    {
        Opcode op;
        std::function<I64(I64, I64)> oracle;
        const char *name;
    };
    const ImmCase cases[] = {
        {Opcode::ADDI, [](I64 a, I64 i) { return I64(U64(a) + U64(i)); },
         "addi"},
        {Opcode::ANDI, [](I64 a, I64 i) { return a & i; }, "andi"},
        {Opcode::ORI, [](I64 a, I64 i) { return a | i; }, "ori"},
        {Opcode::XORI, [](I64 a, I64 i) { return a ^ i; }, "xori"},
        {Opcode::SLLI,
         [](I64 a, I64 i) { return I64(U64(a) << (U64(i) & 63)); },
         "slli"},
        {Opcode::SRLI,
         [](I64 a, I64 i) { return I64(U64(a) >> (U64(i) & 63)); },
         "srli"},
        {Opcode::SRAI, [](I64 a, I64 i) { return a >> (U64(i) & 63); },
         "srai"},
        {Opcode::SLTI,
         [](I64 a, I64 i) { return I64(a < i ? 1 : 0); }, "slti"},
    };
    WlRng rng(0xdef);
    for (const ImmCase &c : cases) {
        for (int i = 0; i < 16; ++i) {
            I64 x = I64(rng.next());
            I64 imm = I64(rng.range(8192)) - 4096;
            if (c.op == Opcode::SLLI || c.op == Opcode::SRLI ||
                c.op == Opcode::SRAI) {
                imm = I64(rng.range(64));
            }
            EXPECT_EQ(runImmop(c.op, x, imm), c.oracle(x, imm))
                << c.name << "(" << x << ", " << imm << ")";
        }
    }
}

TEST(ExecProps, BranchDecisionsMatchOracle)
{
    struct BrCase
    {
        Opcode op;
        std::function<bool(I64, I64)> oracle;
        const char *name;
    };
    const BrCase cases[] = {
        {Opcode::BEQ, [](I64 a, I64 b) { return a == b; }, "beq"},
        {Opcode::BNE, [](I64 a, I64 b) { return a != b; }, "bne"},
        {Opcode::BLT, [](I64 a, I64 b) { return a < b; }, "blt"},
        {Opcode::BGE, [](I64 a, I64 b) { return a >= b; }, "bge"},
        {Opcode::BLTZ, [](I64 a, I64) { return a < 0; }, "bltz"},
        {Opcode::BGEZ, [](I64 a, I64) { return a >= 0; }, "bgez"},
    };
    WlRng rng(0x5eed);
    for (const BrCase &c : cases) {
        for (int i = 0; i < 16; ++i) {
            I64 x = I64(rng.next());
            I64 y = (i % 3 == 0) ? x : I64(rng.next());
            if (i % 5 == 0)
                x = -x;

            Module m("t");
            Function &f = m.createFunction("main");
            FunctionBuilder b(f);
            BlockId taken = b.newBlock();
            BlockId out = b.newBlock();
            b.li(reg::a0, x);
            b.li(reg::a1, y);
            b.li(reg::a2, 0);
            Instruction in;
            in.op = c.op;
            in.rs1 = reg::a0;
            in.rs2 = reg::a1;
            in.targetBlock = out;
            b.emit(in);
            f.block(0).takenSucc(out);
            b.setBlock(taken);
            b.li(reg::a2, 1);  // fall-through path
            b.setBlock(out);
            b.halt();
            auto r = runFunctional(m.link());
            bool wasTaken = r.finalState->readReg(reg::a2) == 0;
            EXPECT_EQ(wasTaken, c.oracle(x, y))
                << c.name << "(" << x << ", " << y << ")";
        }
    }
}

TEST(ExecProps, LoadStoreRoundTripsAllWidths)
{
    struct MemCase
    {
        Opcode store, load;
        int bytes;
        bool signExtend;
    };
    const MemCase cases[] = {
        {Opcode::SB, Opcode::LB, 1, true},
        {Opcode::SB, Opcode::LBU, 1, false},
        {Opcode::SH, Opcode::LH, 2, true},
        {Opcode::SH, Opcode::LHU, 2, false},
        {Opcode::SW, Opcode::LW, 4, true},
        {Opcode::SW, Opcode::LWU, 4, false},
        {Opcode::SD, Opcode::LD, 8, true},
    };
    WlRng rng(0x1234);
    for (const MemCase &c : cases) {
        for (int i = 0; i < 12; ++i) {
            U64 value = rng.next();
            I64 offset = I64(rng.range(64)) * 8;

            Module m("t");
            Addr base = m.allocData("d", 1024);
            Function &f = m.createFunction("main");
            FunctionBuilder b(f);
            b.li(reg::a0, I64(base));
            b.li(reg::a1, I64(value));
            Instruction st;
            st.op = c.store;
            st.rs1 = reg::a0;
            st.rs2 = reg::a1;
            st.imm = offset;
            b.emit(st);
            Instruction ld;
            ld.op = c.load;
            ld.rd = reg::a2;
            ld.rs1 = reg::a0;
            ld.imm = offset;
            b.emit(ld);
            b.halt();
            auto r = runFunctional(m.link());

            U64 mask = c.bytes == 8 ? ~U64(0)
                                    : ((U64(1) << (8 * c.bytes)) - 1);
            U64 raw = value & mask;
            I64 expect;
            if (c.signExtend && c.bytes < 8) {
                int shift = 64 - 8 * c.bytes;
                expect = I64(raw << shift) >> shift;
            } else {
                expect = I64(raw);
            }
            EXPECT_EQ(r.finalState->readReg(reg::a2), expect)
                << opcodeName(c.load) << " of " << value;
        }
    }
}

TEST(ExecProps, JalRecordsReturnAddress)
{
    Module m("t");
    Function &g = m.createFunction("g");
    {
        FunctionBuilder b(g);
        b.mov(reg::a1, reg::ra);  // expose ra
        b.ret();
    }
    Function &f = m.createFunction("main");
    {
        FunctionBuilder b(f);
        b.call(g.id());
        b.halt();
    }
    m.entryFunction(f.id());
    LinkedProgram p = m.link();
    auto r = runFunctional(p);
    EXPECT_EQ(Addr(r.finalState->readReg(reg::a1)),
              f.startAddr() + instrBytes);
}


/** One step() trial's input: a register file and the memory bytes
 *  around the address a load or store would use. */
struct StepInput
{
    std::array<I64, numArchRegs> regs{};
    Addr window = 0;  //!< address of bytes[0]
    std::array<std::uint8_t, 48> bytes{};
};

/** Everything step() returns or writes, for one input. */
struct StepOutcome
{
    Addr nextPc, effAddr, indirectTarget;
    bool taken, halted;
    std::array<I64, numArchRegs> regs;
    std::array<std::uint8_t, 48> bytes;
    U64 memSum;
    bool operator==(const StepOutcome &) const = default;
};

ArchState
stateOf(const StepInput &in)
{
    ArchState st;
    for (RegId r = 1; r < numArchRegs; ++r)
        st.writeReg(r, in.regs[r]);
    for (size_t k = 0; k < in.bytes.size(); ++k)
        st.writeByte(in.window + k, in.bytes[k]);
    return st;
}

StepOutcome
runStep(const LinkedInstr &li, const StepInput &in)
{
    ArchState st = stateOf(in);
    const ExecOut o = step(li, st);
    StepOutcome out{o.nextPc, o.effAddr, o.indirectTarget, o.taken,
                    o.halted, {}, {}, st.memChecksum()};
    for (RegId r = 0; r < numArchRegs; ++r)
        out.regs[r] = st.readReg(r);
    for (size_t k = 0; k < in.bytes.size(); ++k)
        out.bytes[k] = st.readByte(in.window + k);
    return out;
}

TEST(ExecProps, OpcodeTableMatchesStep)
{
    // Each opTable row against the semantics in step(): the
    // registers it reads and writes, the bytes it moves and how it
    // extends them, and what its class does to the next PC.
    std::mt19937_64 rng(0x7ab1e);
    // Half the values are small, so compares and branches see ties.
    auto value = [&] {
        return rng() % 2 ? I64(rng() % 5) - 2 : I64(rng());
    };
    constexpr int trials = 200;
    constexpr int before = 16;  // window bytes below the address
    for (std::size_t k = 0; k < std::size_t(Opcode::NumOpcodes); ++k) {
        const Opcode op = Opcode(k);
        SCOPED_TRACE(opcodeName(op));
        LinkedInstr li;
        li.instr.op = op;
        li.addr = 0x1000;
        li.targetAddr = 0x2000;
        const OpClass cls = li.instr.cls();
        const int bytes = li.instr.memBytes();
        EXPECT_EQ(bytes != 0, li.instr.isMem());
        if (!li.instr.isLoad()) {
            EXPECT_FALSE(li.instr.loadSigned());
        }
        // Whether perturbing srcRegs()' first and second register
        // changed anything in some trial.
        std::array<bool, 2> srcMattered{};
        int nsrc = 0;
        bool writes = false, written = false;
        bool takenSeen = false, fallSeen = false;
        for (int trial = 0; trial < trials; ++trial) {
            // Distinct rd, rs1 and rs2, none of them r0 or ra.
            std::array<RegId, numArchRegs - 2> pool;
            for (size_t r = 0; r < pool.size(); ++r)
                pool[r] = RegId(r + 2);
            std::shuffle(pool.begin(), pool.end(), rng);
            Instruction &in = li.instr;
            in.rd = pool[0];
            in.rs1 = pool[1];
            in.rs2 = pool[2];
            in.imm = I64(rng() % 129) - 64;
            RegId src[2];
            nsrc = in.srcRegs(src);
            const int dest = in.destReg();

            StepInput input;
            for (RegId r = 1; r < numArchRegs; ++r)
                input.regs[r] = value();
            const Addr addr = Addr(input.regs[in.rs1]) + Addr(in.imm);
            input.window = addr - before;
            for (auto &b : input.bytes)
                b = std::uint8_t(rng());
            const StepOutcome base = runStep(li, input);

            // Only the destination register changes, and it does.
            writes = dest >= 0;
            written |= writes && base.regs[dest] != input.regs[dest];
            for (RegId r = 1; r < numArchRegs; ++r) {
                if (r != dest) {
                    ASSERT_EQ(base.regs[r], input.regs[r]) << "r" << int(r);
                }
            }
            // Memory: a store writes its bytes of rs2 at the address,
            // and nothing else changes.
            ArchState expectMem = stateOf(input);
            if (li.instr.isStore()) {
                for (int b = 0; b < bytes; ++b) {
                    expectMem.writeByte(
                        addr + b, std::uint8_t(U64(input.regs[in.rs2]) >>
                                               (8 * b)));
                }
            }
            ASSERT_EQ(base.memSum, expectMem.memChecksum());
            for (size_t b = 0; b < input.bytes.size(); ++b) {
                ASSERT_EQ(base.bytes[b],
                          expectMem.readByte(input.window + b))
                    << "byte " << b;
            }
            ASSERT_EQ(base.effAddr, li.instr.isMem() ? addr : invalidAddr);
            // A load reads its bytes at the address and extends them.
            if (li.instr.isLoad()) {
                U64 raw = 0;
                for (int b = bytes - 1; b >= 0; --b)
                    raw = (raw << 8) | input.bytes[before + b];
                const int shift = 64 - 8 * bytes;
                const I64 expect = li.instr.loadSigned()
                    ? I64(raw << shift) >> shift
                    : I64(raw);
                ASSERT_EQ(base.regs[in.rd], expect);
            }

            // The class against the next PC.
            const Addr fall = li.addr + instrBytes;
            ASSERT_EQ(base.halted, cls == OpClass::Halt);
            const bool indirect = cls == OpClass::IndirectJump ||
                cls == OpClass::IndirectCall || cls == OpClass::Return;
            const bool calls = li.instr.isCall();
            if (cls == OpClass::CondBranch) {
                ASSERT_EQ(base.nextPc, base.taken ? li.targetAddr : fall);
                (base.taken ? takenSeen : fallSeen) = true;
            } else if (cls == OpClass::Jump || cls == OpClass::Call) {
                ASSERT_TRUE(base.taken);
                ASSERT_EQ(base.nextPc, li.targetAddr);
            } else if (indirect) {
                const RegId through =
                    cls == OpClass::Return ? reg::ra : in.rs1;
                ASSERT_TRUE(base.taken);
                ASSERT_EQ(base.nextPc, Addr(input.regs[through]));
            } else if (cls != OpClass::Halt) {
                ASSERT_FALSE(base.taken);
                ASSERT_EQ(base.nextPc, fall);
            }
            ASSERT_EQ(base.indirectTarget,
                      indirect ? base.nextPc : invalidAddr);
            ASSERT_EQ(dest == reg::ra, calls);
            if (calls) {
                ASSERT_EQ(base.regs[reg::ra], I64(fall));
            }

            // A register outside srcRegs changes nothing step returns
            // or writes; a listed one changes something.
            for (RegId r = 1; r < numArchRegs; ++r) {
                StepInput p = input;
                do {
                    p.regs[r] = value();
                } while (p.regs[r] == input.regs[r]);
                StepOutcome expect = base;
                if (r != dest)
                    expect.regs[r] = p.regs[r];
                const StepOutcome got = runStep(li, p);
                const int listed = int(std::find(src, src + nsrc, r) - src);
                if (listed < nsrc) {
                    srcMattered[listed] |= got != expect;
                } else {
                    ASSERT_EQ(got, expect) << "r" << int(r) << " is read";
                }
            }
        }
        for (int s = 0; s < nsrc; ++s)
            EXPECT_TRUE(srcMattered[s]) << "source " << s << " is not read";
        EXPECT_EQ(written, writes) << "destReg() is not what it writes";
        if (cls == OpClass::CondBranch) {
            EXPECT_TRUE(takenSeen);
            EXPECT_TRUE(fallSeen);
        }
    }
}

} // namespace
} // namespace polyflow
