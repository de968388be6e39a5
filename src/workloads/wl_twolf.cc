/**
 * @file
 * twolf: a structural port of the paper's Figure 6 kernel,
 * new_dbox_a. An outer loop walks a linked list of terms; the inner
 * loop walks each term's net list and contains one if-then-else
 * (taken ~30%) and two ABS-style if-thens (taken ~50%), with the
 * cost accumulated through memory exactly as in the original. The
 * induction updates sit in the latch blocks just before the loop
 * branches, matching the paper's observation about PC 9f2c.
 */

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

// Net node layout: xpos, newx, flag, nterm.
constexpr std::int64_t netXpos = 0;
constexpr std::int64_t netNewx = 8;
constexpr std::int64_t netFlag = 16;
constexpr std::int64_t netNterm = 24;
constexpr size_t netBytes = 32;

// Term node layout: dimptr, nextterm.
constexpr std::int64_t termDim = 0;
constexpr std::int64_t termNext = 8;
constexpr size_t termBytes = 16;

constexpr std::int64_t newMean = 5000;
constexpr std::int64_t oldMean = 4800;

struct TermListInfo
{
    Addr termsHead;
    Addr netsBase;
    Addr flagPattern;
    int totalNets;
};

/** Build the term/dim/net object graph in the data segment. */
TermListInfo
buildTermList(Module &mod, int numTerms, WlRng &rng)
{
    // Count the nets first: 1..5 per term, average ~3 (the paper
    // reports three inner iterations on average).
    std::vector<int> netsPerTerm(numTerms);
    int totalNets = 0;
    for (int t = 0; t < numTerms; ++t) {
        netsPerTerm[t] = 1 + int(rng.range(5));
        totalNets += netsPerTerm[t];
    }

    Addr nets = mod.allocData("nets", totalNets * netBytes);
    Addr dims = mod.allocData("dims", numTerms * 8);
    Addr terms = mod.allocData("terms", numTerms * termBytes);

    std::vector<std::uint8_t> netB(totalNets * netBytes, 0);
    std::vector<std::uint8_t> dimB(numTerms * 8, 0);
    std::vector<std::uint8_t> termB(numTerms * termBytes, 0);

    int netIdx = 0;
    for (int t = 0; t < numTerms; ++t) {
        Addr firstNet = nets + Addr(netIdx) * netBytes;
        for (int n = 0; n < netsPerTerm[t]; ++n) {
            size_t off = size_t(netIdx) * netBytes;
            // xpos / newx uniform around the means, so the ABS
            // branches are ~50% taken.
            putWord(netB, off + netXpos,
                    oldMean - 500 + rng.range(1000));
            putWord(netB, off + netNewx,
                    newMean - 500 + rng.range(1000));
            // flag == 1 with ~70% probability: the if-then-else
            // branch (taken when flag != 1) is taken ~30%.
            putWord(netB, off + netFlag, rng.chance(70) ? 1 : 0);
            Addr next = (n + 1 < netsPerTerm[t])
                ? nets + Addr(netIdx + 1) * netBytes : 0;
            putWord(netB, off + netNterm, next);
            ++netIdx;
        }
        putWord(dimB, size_t(t) * 8, firstNet);
        Addr nextTerm = (t + 1 < numTerms)
            ? terms + Addr(t + 1) * termBytes : 0;
        putWord(termB, size_t(t) * termBytes + termDim,
                dims + Addr(t) * 8);
        putWord(termB, size_t(t) * termBytes + termNext, nextTerm);
    }
    // Saved flag pattern: new_dbox_a clears flags as it runs, so
    // the driver restores them before every call (real twolf
    // re-marks moved nets elsewhere in the placer).
    Addr pattern = mod.allocData("flag_pattern", totalNets * 8);
    std::vector<std::uint8_t> patB(totalNets * 8, 0);
    for (int i = 0; i < totalNets; ++i)
        patB[size_t(i) * 8] = netB[size_t(i) * netBytes + netFlag];
    mod.setData(pattern, std::move(patB));

    mod.setData(nets, std::move(netB));
    mod.setData(dims, std::move(dimB));
    mod.setData(terms, std::move(termB));
    return {terms, nets, pattern, totalNets};
}

/**
 * Emit reset_flags(a0 = netsBase, a1 = patternBase, a2 = count):
 * restore every net's flag from the saved pattern.
 */
void
emitResetFlags(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("loop");
    BlockId exit = b.newBlock("exit");
    b.mov(t0, a0);
    b.mov(t1, a1);
    b.mov(t2, a2);
    b.jump(loop);
    b.setBlock(loop);
    b.ld(t3, t1, 0);
    b.sd(t3, t0, netFlag);
    b.addi(t0, t0, netBytes);
    b.addi(t1, t1, 8);
    b.addi(t2, t2, -1);
    b.bne(t2, zero, loop);
    b.setBlock(exit);
    b.ret();
}

/** Emit new_dbox_a(a0 = termptr head, a1 = costptr). */
void
emitNewDboxA(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId outerHeader = b.newBlock("outer_header");
    BlockId innerHeader = b.newBlock("inner_header");
    BlockId thenBlk = b.newBlock("then");
    BlockId elseBlk = b.newBlock("else");
    BlockId join1 = b.newBlock("join1");
    BlockId neg1 = b.newBlock("neg1");
    BlockId join2 = b.newBlock("join2");
    BlockId neg2 = b.newBlock("neg2");
    BlockId innerTail = b.newBlock("inner_tail");
    BlockId midwork = b.newBlock("midwork");
    BlockId outerLatch = b.newBlock("outer_latch");
    BlockId exit = b.newBlock("exit");

    // entry: s0 = termptr, s4/s5 = means; guard empty list.
    b.mov(s0, a0);
    b.li(s4, newMean);  // s4
    b.li(s5, oldMean);  // s5
    b.beq(s0, zero, exit);

    // outer_header ("9d60"): dimptr/netptr loads.
    b.setBlock(outerHeader);
    b.ld(s1, s0, termDim);     // dimptr
    b.ld(s2, s1, 0);           // netptr = dimptr->netptr
    b.beq(s2, zero, midwork);

    // inner_header ("9da0"): if (netptr->flag == 1).
    b.setBlock(innerHeader);
    b.ld(t0, s2, netXpos);     // oldx
    b.ld(t1, s2, netFlag);
    b.addi(t2, zero, 1);
    b.bne(t1, t2, elseBlk);
    // then: newx = netptr->newx; netptr->flag = 0.
    b.setBlock(thenBlk);
    b.ld(t3, s2, netNewx);
    b.sd(zero, s2, netFlag);
    b.jump(join1);

    b.setBlock(elseBlk);       // newx = oldx
    b.mov(t3, t0);

    // join1 ("9dbc"): t4 = ABS(newx - new_mean) part 1.
    b.setBlock(join1);
    b.sub(t4, t3, s4);
    b.bgez(t4, join2);
    b.setBlock(neg1);
    b.sub(t4, s4, t3);
    b.jump(join2);

    // join2 ("9dc8"): load *costptr, t6 = ABS(oldx - old_mean).
    b.setBlock(join2);
    b.ld(t5, a1, 0);
    b.sub(t6, t0, s5);
    b.bgez(t6, innerTail);
    b.setBlock(neg2);
    b.sub(t6, s5, t0);
    b.jump(innerTail);

    // inner_tail ("9dd8"): accumulate and advance netptr. The
    // induction load sits just before the loop branch.
    b.setBlock(innerTail);
    b.sub(t7, t4, t6);
    b.add(t5, t5, t7);
    b.sd(t5, a1, 0);
    b.ld(s2, s2, netNterm);
    b.bne(s2, zero, innerHeader);

    // midwork ("9dec.."): post-inner-loop adjustments.
    b.setBlock(midwork);
    b.ld(t0, a1, 0);
    b.srai(t1, t0, 4);
    b.add(t2, t1, s4);
    b.xor_(t3, t2, t0);
    b.andi(t3, t3, 0xffff);
    b.add(t0, t0, zero);
    b.sd(t3, a1, 8);

    // outer_latch ("9f28"): termptr = termptr->nextterm.
    b.setBlock(outerLatch);
    b.ld(s0, s0, termNext);
    b.bne(s0, zero, outerHeader);

    b.setBlock(exit);
    b.ret();
}

} // namespace

Workload
buildTwolf(double scale)
{
    auto mod = std::make_unique<Module>("twolf");
    WlRng rng(0x7701f);

    int numTerms = 60;
    int calls = std::max(1, int(48 * scale));

    TermListInfo info = buildTermList(*mod, numTerms, rng);
    Addr cost = mod->allocData("cost", 16);
    mod->setData64(cost, 0);

    Function &dbox = mod->createFunction("new_dbox_a");
    emitNewDboxA(dbox);
    Function &reset = mod->createFunction("reset_flags");
    emitResetFlags(reset);

    emitDriver(*mod, calls, [&](FunctionBuilder &b) {
        using namespace reg;
        b.li(a0, std::int64_t(info.netsBase));
        b.li(a1, std::int64_t(info.flagPattern));
        b.li(a2, info.totalNets);
        b.call(reset.id());
        b.li(a0, std::int64_t(info.termsHead));
        b.li(a1, std::int64_t(cost));
        b.call(dbox.id());
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
