/**
 * @file
 * Tests for the auxiliary library surface: liveness and write
 * summaries, and the stats table helper.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/liveness.hh"
#include "ir/builder.hh"
#include "stats/table.hh"

namespace polyflow {
namespace {

TEST(Liveness, UseDefAndFlow)
{
    Module m("t");
    Function &f = m.createFunction("f");
    BlockId thenB, join;
    {
        FunctionBuilder b(f);
        thenB = b.newBlock("then");
        join = b.newBlock("join");
        // entry: t0 = a0 + 1; branch on t1 (live-in).
        b.addi(reg::t0, reg::a0, 1);
        b.beq(reg::t1, reg::zero, join);
        b.setBlock(thenB);
        b.addi(reg::t2, reg::t0, 2);  // uses t0 (def upstream)
        b.setBlock(join);
        b.add(reg::a0, reg::t0, reg::t0);
        b.ret();
    }
    m.link();
    Liveness lv(f, {});

    // Entry uses a0 and t1 (read before any def), defines t0.
    EXPECT_TRUE(lv.use(0) & (1u << reg::a0));
    EXPECT_TRUE(lv.use(0) & (1u << reg::t1));
    EXPECT_TRUE(lv.def(0) & (1u << reg::t0));
    EXPECT_FALSE(lv.use(0) & (1u << reg::t0));
    // t0 is live into both successors.
    EXPECT_TRUE(lv.liveIn(thenB) & (1u << reg::t0));
    EXPECT_TRUE(lv.liveIn(join) & (1u << reg::t0));
    // t2 is dead at join.
    EXPECT_FALSE(lv.liveIn(join) & (1u << reg::t2));
}

TEST(Liveness, WriteSummariesPropagate)
{
    Module m("t");
    Function &leaf = m.createFunction("leaf");
    {
        FunctionBuilder b(leaf);
        b.li(reg::t5, 9);
        b.ret();
    }
    Function &mid = m.createFunction("mid");
    {
        FunctionBuilder b(mid);
        b.li(reg::t6, 1);
        b.call(leaf.id());
        b.ret();
    }
    m.link();
    auto ws = moduleWriteSummaries(m);
    EXPECT_TRUE(ws[leaf.id()] & (1u << reg::t5));
    // mid writes t6 itself and t5 through the leaf.
    EXPECT_TRUE(ws[mid.id()] & (1u << reg::t6));
    EXPECT_TRUE(ws[mid.id()] & (1u << reg::t5));
    EXPECT_FALSE(ws[leaf.id()] & (1u << reg::t6));
}

TEST(Liveness, RecursionConverges)
{
    Module m("t");
    Function &f = m.createFunction("f");
    {
        FunctionBuilder b(f);
        BlockId recurse = b.newBlock();
        BlockId stop = b.newBlock();
        b.li(reg::t4, 1);
        b.beq(reg::a0, reg::zero, stop);
        b.setBlock(recurse);
        b.call(0);  // self-recursive
        b.setBlock(stop);
        b.ret();
    }
    m.link();
    auto ws = moduleWriteSummaries(m);
    EXPECT_TRUE(ws[0] & (1u << reg::t4));
}

TEST(Table, AlignmentAndCsv)
{
    Table t({"name", "value"});
    t.startRow();
    t.cell(std::string("alpha"));
    t.cell(3.14159, 2);
    t.startRow();
    t.cell(std::string("b"));
    t.cell(42LL);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_THROW(Table({"x"}).cell(1LL), std::runtime_error);
}

} // namespace
} // namespace polyflow
