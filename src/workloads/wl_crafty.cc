/**
 * @file
 * crafty: chess-evaluation flavour — a square-scan loop of nested,
 * data-dependent if-thens over board bit words (hard hammocks), a
 * piece-type switch through a jump table (an "other" spawn source),
 * and register-heavy bit manipulation.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

/**
 * Emit evaluate(a0 = board words, a1 = count, a2 = jump table,
 * a3 = score ptr). Per square: two nested 50% if-thens with bit
 * work, then a 6-way switch on the piece type via an indirect jump.
 */
void
emitEvaluate(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("sq_loop");
    BlockId if1 = b.newBlock("if1_then");
    BlockId if2chk = b.newBlock("if2_check");
    BlockId if2 = b.newBlock("if2_then");
    BlockId sw = b.newBlock("switch");
    std::vector<BlockId> cases;
    for (int c = 0; c < 6; ++c)
        cases.push_back(b.newBlock("case" + std::to_string(c)));
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");

    b.mov(t1, a1);          // remaining squares
    b.li(s6, 0);            // score
    b.ld(s4, a0, 0);        // bit cursor: board scan state
    b.jump(loop);

    // Square selection depends on the scan state, which the end of
    // the previous iteration updates from the score — the
    // loop-carried pattern of real bitboard scan loops.
    b.setBlock(loop);
    b.andi(t0, s4, 63);     // square index
    b.slli(t0, t0, 3);
    b.add(t0, t0, a0);
    b.ld(t2, t0, 0);        // board word (random bits)
    b.andi(t3, t2, 1);
    b.beq(t3, zero, if2chk);    // ~50% hard
    b.setBlock(if1);
    b.srli(t4, t2, 13);
    b.xor_(s6, s6, t4);
    b.addi(s6, s6, 3);

    b.setBlock(if2chk);
    b.andi(t3, t2, 2);
    b.beq(t3, zero, sw);        // ~50% hard
    b.setBlock(if2);
    b.slli(t4, t2, 3);
    b.add(s6, s6, t4);
    b.srai(t5, s6, 5);
    b.xor_(s6, s6, t5);

    // switch (piece type = bits 8..10, 0..5 valid) via jump table.
    b.setBlock(sw);
    b.srli(t4, t2, 8);
    b.andi(t4, t4, 7);
    b.slti(t5, t4, 6);
    b.beq(t5, zero, latch);  // types 6..7: empty square, skip
    // Fall through to the dispatch block: index the table and jump.
    b.setBlock(cases[0]);
    b.slli(t5, t4, 3);
    b.add(t5, t5, a2);
    b.ld(t5, t5, 0);
    std::vector<BlockId> targets(cases.begin() + 1, cases.end());
    targets.push_back(latch);
    b.jr(t5, targets);

    // case bodies 1..5 do distinct score work; case 0's body is
    // reached when the table points back at it (type 0 maps to a
    // pawn-less quick exit through the latch), handled below.
    for (int c = 1; c < 6; ++c) {
        b.setBlock(cases[c]);
        b.addi(s6, s6, 7 * c);
        b.slli(t6, t2, c);
        b.xor_(s6, s6, t6);
        if (c % 2 == 0) {
            b.srai(t6, s6, 3);
            b.add(s6, s6, t6);
        }
        b.jump(latch);
    }

    b.setBlock(latch);
    // Advance the scan state from this square's board word (the
    // bitboard "clear lowest bit" pattern): the next square is
    // unknown until this square's word arrives.
    b.li(t7, 0x9e3779b97f4a7c15);
    b.mul(t7, t7, t2);
    b.xor_(s4, s4, t7);
    b.srli(t7, s4, 7);
    b.add(s4, s4, t7);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.setBlock(exit);
    b.sd(s6, a3, 0);
    b.ret();
}

} // namespace

Workload
buildCrafty(double scale)
{
    auto mod = std::make_unique<Module>("crafty");
    WlRng rng(0xc4af7);

    int numSquares = 64;
    int iters = std::max(1, int(130 * scale));

    Addr board = allocRandomWords(*mod, "board", numSquares, rng);
    Addr score = mod->allocData("score", 8);

    Function &eval = mod->createFunction("evaluate");
    emitEvaluate(eval);

    // Jump table: piece types 0..5 -> case blocks 1..5 and latch.
    // Type 0 goes straight to the latch (empty square).
    FuncId evalId = eval.id();
    // Block ids inside evaluate: see emitEvaluate's creation order:
    // 0 entry, 1 loop, 2 if1, 3 if2chk, 4 if2, 5 switch,
    // 6..11 cases, 12 latch, 13 exit.
    Addr jt = mod->allocJumpTable(
        "piece_jt",
        {{evalId, 12}, {evalId, 7}, {evalId, 8},
         {evalId, 9}, {evalId, 10}, {evalId, 11}});

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        b.li(a0, std::int64_t(board));
        b.li(a1, numSquares);
        b.li(a2, std::int64_t(jt));
        b.li(a3, std::int64_t(score));
        b.call(eval.id());
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
