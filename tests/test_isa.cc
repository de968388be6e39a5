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
#include "isa/page_map.hh"
#include "isa/trace_io.hh"
#include "store/bytes.hh"
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

TEST(ArchState, PageEdgeAccessesMatchTheByteView)
{
    // Every width at each of a page's last seven offsets, the wider
    // ones straddling into the next page: readMem is the
    // little-endian assembly of readByte, and writeMem changes
    // exactly its own bytes.
    constexpr Addr page = 5 * ArchState::pageBytes;
    for (const int width : {1, 2, 4, 8}) {
        for (Addr back = 1; back <= 7; ++back) {
            SCOPED_TRACE(testing::Message()
                         << width << " bytes at page end - " << back);
            const Addr addr = page - back;
            ArchState st;
            for (Addr a = addr - 8; a < addr + 16; ++a)
                st.writeByte(a, static_cast<std::uint8_t>(a * 37 + 11));
            std::uint64_t expect = 0;
            for (int i = 0; i < width; ++i)
                expect |= std::uint64_t(st.readByte(addr + i)) << (8 * i);
            EXPECT_EQ(st.readMem(addr, width), expect);

            const std::uint64_t value = 0xf1e2d3c4b5a69788ull;
            st.writeMem(addr, value, width);
            for (Addr a = addr - 8; a < addr + 16; ++a) {
                const Addr i = a - addr;
                const std::uint8_t want =
                    a >= addr && i < Addr(width)
                    ? static_cast<std::uint8_t>(value >> (8 * i))
                    : static_cast<std::uint8_t>(a * 37 + 11);
                EXPECT_EQ(st.readByte(a), want) << "byte " << a;
            }
        }
    }
}

TEST(ArchState, ReadingAnUnwrittenPageAllocatesNothing)
{
    ArchState st;
    st.writeMem(0x5000, 0x1234, 8);
    const std::uint64_t sum = st.memChecksum();
    EXPECT_EQ(st.readMem(0x9000, 8), 0u);
    EXPECT_EQ(st.readByte(0x9008), 0u);
    // Straddles from the written page into an unwritten one.
    EXPECT_EQ(st.readMem(0x6000 - 2, 4), 0u);
    EXPECT_EQ(st.readMem(0x5000, 8), 0x1234u);
    EXPECT_EQ(st.memChecksum(), sum);
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
        b.and_(reg::s0, reg::t0, reg::t1);  // 2
        b.ori(reg::s1, reg::t0, 5);         // 15
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
    EXPECT_EQ(st.readReg(reg::s0), 2);
    EXPECT_EQ(st.readReg(reg::s1), 15);
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
        b.li(reg::t6, 2);
        b.sra(reg::s0, reg::t0, reg::t6);   // -4
        b.srl(reg::s1, reg::t0, reg::t6);   // 2^62 - 4
        b.halt();
    });
    const ArchState &st = *r.finalState;
    EXPECT_EQ(st.readReg(reg::t1), -4);
    EXPECT_EQ(st.readReg(reg::t2), 15);
    EXPECT_EQ(st.readReg(reg::t3), -32);
    EXPECT_EQ(st.readReg(reg::t5), 1);
    EXPECT_EQ(st.readReg(reg::s0), -4);
    EXPECT_EQ(st.readReg(reg::s1), (std::int64_t(1) << 62) - 4);
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
        b.sw(reg::t1, reg::t0, 12);
        b.lw(reg::s4, reg::t0, 12);    // sign-extended
        b.lwu(reg::s5, reg::t0, 12);   // zero-extended
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
    EXPECT_EQ(st.readReg(reg::s4), -2);
    EXPECT_EQ(st.readReg(reg::s5), std::int64_t(0xfffffffe));
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
    EXPECT_EQ(t.prod(2, 0), 0u);
    EXPECT_EQ(t.prod(2, 1), 1u);
    // Load's memory producer is the store.
    EXPECT_EQ(t.memProd(3), 2u);
    EXPECT_EQ(t.effAddr(3), t.effAddr(2));
    // Add depends on the load and the li.
    EXPECT_EQ(t.prod(4, 0), 3u);
    EXPECT_EQ(t.prod(4, 1), 1u);
    // Nothing marked taken in straight-line code.
    EXPECT_FALSE(t.instrs[0].taken());
}

TEST(FunctionalSim, LoadAcrossALastStorePageNamesTheYoungerStore)
{
    // The load reads the last chunk of one 4 KiB page and the first
    // of the next; each chunk's last store lives in its own page of
    // the last-store table. Whichever side was stored last is the
    // producer.
    for (const bool lowLast : {false, true}) {
        SCOPED_TRACE(lowLast ? "low chunk stored last"
                             : "high chunk stored last");
        auto r = runProgram(
            [lowLast](FunctionBuilder &b, Module &m) {
                const Addr d = m.allocData("d", 2 * ArchState::pageBytes);
                ASSERT_EQ(d % ArchState::pageBytes, 0u);
                const Addr end = d + ArchState::pageBytes;
                b.li(reg::t0, std::int64_t(end - 8));  // 0
                b.li(reg::t1, 7);                      // 1
                b.sd(reg::t1, reg::t0, lowLast ? 8 : 0);  // 2
                b.sd(reg::t1, reg::t0, lowLast ? 0 : 8);  // 3
                b.ld(reg::t2, reg::t0, 4);             // 4: spans both
                b.halt();
            },
            true);
        const Trace &t = r.trace;
        ASSERT_EQ(t.size(), 6u);
        EXPECT_EQ(t.memProd(4), 3u);
        EXPECT_EQ(r.finalState->readReg(reg::t2), 7ll << 32);
    }
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

TEST(PageMap, TwoCachedPagesAgreeWithTheMap)
{
    PageMap<int, 4> m(-1);
    // Both pages are cached as absent, then made.
    EXPECT_EQ(m.find(1), nullptr);
    EXPECT_EQ(m.find(2), nullptr);
    m.get(1)[0] = 10;
    EXPECT_EQ(m.find(2), nullptr);
    m.get(2)[1] = 20;
    for (int round = 0; round < 3; ++round) {
        ASSERT_NE(m.find(1), nullptr);
        EXPECT_EQ((*m.find(1))[0], 10);
        EXPECT_EQ(m.get(2)[1], 20);
        EXPECT_EQ(m.get(1)[1], -1);
    }
    // A third page evicts one; both old ones still read back.
    m.get(3)[2] = 30;
    EXPECT_EQ((*m.find(2))[1], 20);
    EXPECT_EQ((*m.find(1))[0], 10);
    EXPECT_EQ(m.pages().size(), 3u);
    PageMap<int, 4> moved(std::move(m));
    EXPECT_EQ((*moved.find(3))[2], 30);
    EXPECT_EQ(moved.find(4), nullptr);
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
            const Instruction &in = t.staticOf(i).instr;
            // An entry exactly for memory ops and indirect transfers.
            const bool carries = in.isMem() || isIndirect(in);
            ASSERT_EQ(t.side(i) != Trace::noSide, carries) << "at " << i;
            ASSERT_EQ(t.effAddr(i) != invalidAddr, carries) << "at " << i;
            if (carries) {
                ASSERT_EQ(t.side(i), sides) << "at " << i;
                ++sides;
            }
            // The target is where the trace goes next.
            if (isIndirect(in) && i + 1 < t.size()) {
                ASSERT_EQ(t.effAddr(i), t.staticOf(i + 1).addr) << i;
            }
            // A memory producer only on loads, and an older store.
            const TraceIdx p = t.memProd(i);
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
        EXPECT_EQ(back.farSize(), t.farSize());
        for (TraceIdx i = 0; i < t.size(); ++i) {
            ASSERT_EQ(t.instrs[i].imgTaken, back.instrs[i].imgTaken)
                << "at " << i;
            ASSERT_EQ(t.prod(i, 0), back.prod(i, 0)) << "at " << i;
            ASSERT_EQ(t.prod(i, 1), back.prod(i, 1)) << "at " << i;
            ASSERT_EQ(t.side(i), back.side(i)) << "at " << i;
            ASSERT_EQ(t.effAddr(i), back.effAddr(i)) << "at " << i;
            ASSERT_EQ(t.memProd(i), back.memProd(i)) << "at " << i;
        }
    }
}


/** store::laneStep chain over every record of @p t: its image and
 *  taken flag, its two register producers and its side slot, then
 *  its side-table entry (effective address, memory producer), so a
 *  changed link, flag or side slot moves it. */
std::uint64_t
traceHash(const Trace &t)
{
    std::uint64_t h = t.size();
    for (TraceIdx i = 0; i < t.size(); ++i) {
        for (std::uint64_t w : {std::uint64_t(t.instrs[i].imgTaken),
                                std::uint64_t(t.prod(i, 0)),
                                std::uint64_t(t.prod(i, 1)),
                                std::uint64_t(t.side(i)), t.effAddr(i),
                                std::uint64_t(t.memProd(i))})
            h = store::laneStep(h, w);
    }
    return h;
}

/**
 * Every workload's trace at scale 0.04 (the golden's): its length,
 * traceHash() and the final memChecksum(). A change to the
 * functional simulator or to the recorder that moves any record,
 * link or stored byte fails here, whether or not a cycle moves.
 */
TEST(TraceRecords, FingerprintsArePinned)
{
    struct Pin
    {
        const char *name;
        std::uint64_t instrs;
        std::uint64_t records;
        std::uint64_t memory;
    };
    const Pin pins[] = {
        {"bzip2", 9399, 0x215ecf6aba0a8ad6, 0x2faf5679fbe27a93},
        {"crafty", 9463, 0x3d33a43a011a86c9, 0x8159a5b4065b4610},
        {"gap", 9727, 0x6fd4a2e4d5ec6531, 0xd1c5b70e94bdbd61},
        {"gcc", 6397, 0xa9de1d83a620f9af, 0xad7eafb6af9a9f5e},
        {"gzip", 20251, 0x46ec7c9deae90041, 0xd75b8c16482954f3},
        {"mcf", 8589, 0x31f3845a3f229cee, 0x6835a70dbb0cd139},
        {"parser", 7705, 0x775054efce79f861, 0xeba871462698dbb2},
        {"perlbmk", 12765, 0x7706f90c7e71b3fd, 0x52228daef7221961},
        {"twolf", 5495, 0x72e38a5b98df5eb6, 0x7f3958cf3c637fbb},
        {"vortex", 101902, 0x5fd8af499ed8fe86, 0x51be1810cb033df3},
        {"vpr.place", 8246, 0xf659cd3c97d9aab8, 0x3403058b4dbefa21},
        {"vpr.route", 7117, 0x90227d63aa13e90d, 0xa0558b861a72ffc8},
    };
    ASSERT_EQ(std::size(pins), allWorkloadNames().size());
    for (const Pin &p : pins) {
        SCOPED_TRACE(p.name);
        const Workload w = buildWorkload(p.name, 0.04);
        FunctionalOptions opt;
        opt.recordTrace = true;
        const FunctionalResult r = runFunctional(w.prog, opt);
        ASSERT_TRUE(r.halted);
        EXPECT_EQ(r.instrCount, p.instrs);
        EXPECT_EQ(r.trace.size(), p.instrs);
        EXPECT_EQ(traceHash(r.trace), p.records);
        EXPECT_EQ(r.finalState->memChecksum(), p.memory);
    }
}

} // namespace
} // namespace polyflow
