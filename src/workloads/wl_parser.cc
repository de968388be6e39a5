/**
 * @file
 * parser: recursive-descent flavour — a real expression grammar
 * (expr = term ('+' term)*, term = factor ('*' factor)*, factor =
 * NUM | '(' expr ')') parsed over a pre-generated token stream, with
 * genuine recursion through the call stack. The cursor travels in
 * a0 through calls and returns (as a register-allocating compiler
 * would produce), and every token carries an independent "semantic
 * action" computation, so the token-to-token serial chain is thin —
 * like the dictionary work in the real parser.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

enum TokType : std::uint8_t {
    tokNum = 0,
    tokPlus = 1,
    tokTimes = 2,
    tokLparen = 3,
    tokRparen = 4,
    tokEnd = 5,
};

/** Host-side random expression generator (bounded depth). */
void
genExpr(std::vector<std::uint8_t> &out, WlRng &rng, int depth);

void
genFactor(std::vector<std::uint8_t> &out, WlRng &rng, int depth)
{
    if (depth >= 3 || rng.chance(92)) {
        out.push_back(tokNum);
        out.push_back(std::uint8_t(rng.range(200)));
    } else {
        out.push_back(tokLparen);
        out.push_back(0);
        genExpr(out, rng, depth + 1);
        out.push_back(tokRparen);
        out.push_back(0);
    }
}

void
genTerm(std::vector<std::uint8_t> &out, WlRng &rng, int depth)
{
    genFactor(out, rng, depth);
    while (rng.chance(52)) {
        out.push_back(tokTimes);
        out.push_back(0);
        genFactor(out, rng, depth);
    }
}

void
genExpr(std::vector<std::uint8_t> &out, WlRng &rng, int depth)
{
    genTerm(out, rng, depth);
    while (rng.chance(55)) {
        out.push_back(tokPlus);
        out.push_back(0);
        genTerm(out, rng, depth);
    }
}

// Calling convention: gp = token array base (set once by main);
// a0 = cursor in/out (token index); a1 = value out.

/** Emit parse_factor. */
void
emitParseFactor(Function &fn, FuncId parseExpr)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId num = b.newBlock("num");
    BlockId paren = b.newBlock("paren");
    BlockId out = b.newBlock("out");

    b.addi(sp, sp, -16);
    b.sd(ra, sp, 0);
    b.slli(t2, a0, 1);
    b.add(t2, t2, gp);
    b.lbu(t3, t2, 0);       // token type
    b.bne(t3, zero, paren); // != NUM (~35%)

    // NUM: consume, then run the independent semantic action on
    // the operand byte.
    b.setBlock(num);
    b.lbu(t4, t2, 1);
    b.addi(a0, a0, 1);
    b.slli(t5, t4, 7);
    b.xor_(t5, t5, t4);
    b.addi(t6, t4, 0x55);
    b.mul(t6, t6, t5);
    b.srli(t7, t6, 9);
    b.xor_(t6, t6, t7);
    b.slli(t7, t6, 3);
    b.add(t6, t6, t7);
    b.xori(t5, t6, 0x3c9);
    b.srai(t7, t5, 2);
    b.add(t5, t5, t7);
    b.slli(t7, t5, 5);
    b.xor_(t5, t5, t7);
    b.srli(t7, t5, 11);
    b.add(t6, t5, t7);
    b.andi(a1, t6, 0xffff);
    b.jump(out);

    b.setBlock(paren);
    b.addi(a0, a0, 1);      // consume '('
    b.call(parseExpr);
    b.addi(a0, a0, 1);      // consume ')'

    b.setBlock(out);
    b.ld(ra, sp, 0);
    b.addi(sp, sp, 16);
    b.ret();
}

/**
 * Emit a binary-operator level: parse_term / parse_expr. Calls
 * @p child, then folds further operands while the next token is
 * @p opToken.
 */
void
emitParseLevel(Function &fn, FuncId child, int opToken, bool isMul)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("loop");
    BlockId more = b.newBlock("more");
    BlockId done = b.newBlock("done");

    b.addi(sp, sp, -16);
    b.sd(ra, sp, 0);
    b.sd(s0, sp, 8);
    b.call(child);
    b.mov(s0, a1);          // accumulator
    b.jump(loop);

    b.setBlock(loop);
    b.slli(t2, a0, 1);
    b.add(t2, t2, gp);
    b.lbu(t3, t2, 0);
    b.addi(t4, zero, opToken);
    b.bne(t3, t4, done);

    b.setBlock(more);
    b.addi(a0, a0, 1);      // consume the operator
    b.call(child);
    // Fold: independent shuffle of the operand, thin serial hop.
    b.slli(t5, a1, 2);
    b.xor_(t5, t5, a1);
    if (isMul) {
        b.mul(s0, s0, a1);
        b.andi(s0, s0, 0xffff);
        b.add(s0, s0, t5);
    } else {
        b.add(s0, s0, a1);
        b.xor_(s0, s0, t5);
    }
    b.jump(loop);

    b.setBlock(done);
    b.mov(a1, s0);
    b.ld(ra, sp, 0);
    b.ld(s0, sp, 8);
    b.addi(sp, sp, 16);
    b.ret();
}

} // namespace

Workload
buildParser(double scale)
{
    auto mod = std::make_unique<Module>("parser");
    WlRng rng(0x9a45e5);

    int iters = std::max(1, int(40 * scale));

    // One long random expression, terminated by tokEnd.
    std::vector<std::uint8_t> tokens;
    while (tokens.size() < 320 * 2) {
        genExpr(tokens, rng, 0);
        tokens.push_back(tokPlus);  // chain expressions together
        tokens.push_back(0);
    }
    tokens.pop_back();
    tokens.pop_back();
    tokens.push_back(tokEnd);
    tokens.push_back(0);
    Addr toks = mod->allocData("tokens", tokens.size());
    mod->setData(toks, tokens);
    Addr result = mod->allocData("result", 8);

    // Create all three first: factor forward-references expr.
    Function &factor = mod->createFunction("parse_factor");
    Function &term = mod->createFunction("parse_term");
    Function &expr = mod->createFunction("parse_expr");
    emitParseFactor(factor, expr.id());
    emitParseLevel(term, factor.id(), tokTimes, true);
    emitParseLevel(expr, term.id(), tokPlus, false);

    Function &main = mod->createFunction("main");
    {
        FunctionBuilder b(main);
        using namespace reg;
        BlockId loop = b.newBlock("main_loop");
        BlockId done = b.newBlock("done");
        b.li(s7, iters);
        b.li(gp, std::int64_t(toks));
        b.jump(loop);
        b.setBlock(loop);
        b.li(a0, 0);        // cursor = 0
        b.call(expr.id());
        b.li(t0, std::int64_t(result));
        b.sd(a1, t0, 0);
        b.addi(s7, s7, -1);
        b.bne(s7, zero, loop);
        b.setBlock(done);
        b.halt();
    }
    mod->entryFunction(main.id());
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
