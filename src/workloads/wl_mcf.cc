/**
 * @file
 * mcf: network-simplex flavour — an arc-scan loop full of
 * data-dependent, ~50%-taken branches over pointer-linked node data,
 * plus a pointer-chasing tree walk. Hard hammocks inside loops are
 * the dominant opportunity, as in the real benchmark.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

// Arc layout (linked list): ident, tail index, head index, cost,
// next pointer. The list walk serializes iteration handoff just
// like the real mcf's arc/node pointer structures.
constexpr std::int64_t arcIdent = 0;
constexpr std::int64_t arcTail = 8;
constexpr std::int64_t arcHead = 16;
constexpr std::int64_t arcCost = 24;
constexpr std::int64_t arcNext = 32;
constexpr size_t arcBytes = 40;

// Node layout: potential, flow.
constexpr std::int64_t nodePot = 0;
constexpr std::int64_t nodeFlow = 8;
constexpr size_t nodeBytes = 16;

/**
 * Emit scan_arcs(a0 = arc list head, a2 = nodes): walk the arc
 * list; for each arc with positive ident, push reduced cost into
 * the head node's flow. The ident test and the ABS hammock are
 * ~50% taken; the next-arc pointer load in the latch makes
 * iteration handoff a real dependence.
 */
void
emitScanArcs(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("arc_loop");
    BlockId work = b.newBlock("work");
    BlockId abs = b.newBlock("abs");
    BlockId accum = b.newBlock("accum");
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");

    b.mov(t0, a0);          // arc cursor
    b.jump(loop);

    b.setBlock(loop);
    b.ld(t2, t0, arcIdent);
    b.bltz(t2, latch);      // ~50%: arc not in basis

    b.setBlock(work);
    b.ld(t3, t0, arcTail);
    b.ld(t4, t0, arcHead);
    b.slli(t3, t3, 4);      // * nodeBytes
    b.slli(t4, t4, 4);
    b.add(t3, t3, a2);
    b.add(t4, t4, a2);
    b.ld(t5, t3, nodePot);  // dependent loads
    b.ld(t6, t4, nodePot);
    b.ld(t7, t0, arcCost);
    b.add(t5, t5, t7);
    b.sub(t5, t5, t6);      // reduced cost
    b.bgez(t5, accum);      // ~50% ABS hammock
    b.setBlock(abs);
    b.sub(t5, zero, t5);
    b.jump(accum);

    b.setBlock(accum);
    b.ld(t6, t4, nodeFlow);
    b.add(t6, t6, t5);
    b.sd(t6, t4, nodeFlow);

    b.setBlock(latch);
    b.ld(t0, t0, arcNext);
    b.bne(t0, zero, loop);
    b.setBlock(exit);
    b.ret();
}

/**
 * Emit chase(a0 = head, a1 = acc ptr): walk a linked list; on nodes
 * whose key has bit 0 set (~50%) fold the key into the accumulator
 * register, finally store it. Dependent load chain throttles IPC.
 */
void
emitChase(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("chase_loop");
    BlockId fold = b.newBlock("fold");
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");

    b.mov(t0, a0);
    b.li(t1, 0);            // acc
    b.beq(t0, zero, exit);

    b.setBlock(loop);
    b.ld(t2, t0, listField(0));
    b.andi(t3, t2, 1);
    b.beq(t3, zero, latch); // ~50%

    b.setBlock(fold);
    b.srli(t4, t2, 7);
    b.xor_(t1, t1, t4);
    b.add(t1, t1, t2);

    b.setBlock(latch);
    b.ld(t0, t0, listNext(2));
    b.bne(t0, zero, loop);

    b.setBlock(exit);
    b.sd(t1, a1, 0);
    b.ret();
}

} // namespace

Workload
buildMcf(double scale)
{
    auto mod = std::make_unique<Module>("mcf");
    WlRng rng(0x3cf);

    // MinneSPEC-sized working set (cache resident, like the
    // paper's lgred input where mcf still achieves IPC 1.91).
    int numArcs = 96;
    int numNodes = 64;
    int listNodes = 48;
    int iters = std::max(1, int(160 * scale));

    // Arcs linked in a shuffled order, ident with a random sign.
    Addr arcs = mod->allocData("arcs", numArcs * arcBytes);
    Addr arcHeadAddr;
    {
        std::vector<std::uint8_t> bytes(numArcs * arcBytes, 0);
        std::vector<int> order(numArcs);
        for (int a = 0; a < numArcs; ++a)
            order[a] = a;
        for (int a = numArcs; a > 1; --a)
            std::swap(order[a - 1], order[rng.range(a)]);
        for (int a = 0; a < numArcs; ++a) {
            size_t off = size_t(order[a]) * arcBytes;
            putWord(bytes, off + arcIdent,
                    rng.chance(50) ? 1 : std::uint64_t(-1));
            putWord(bytes, off + arcTail, rng.range(numNodes));
            putWord(bytes, off + arcHead, rng.range(numNodes));
            putWord(bytes, off + arcCost, rng.range(1000));
            Addr next = (a + 1 < numArcs)
                ? arcs + Addr(order[a + 1]) * arcBytes : 0;
            putWord(bytes, off + arcNext, next);
        }
        arcHeadAddr = arcs + Addr(order[0]) * arcBytes;
        mod->setData(arcs, std::move(bytes));
    }
    Addr nodes = mod->allocData("nodes", numNodes * nodeBytes);
    {
        std::vector<std::uint8_t> bytes(numNodes * nodeBytes, 0);
        for (int n = 0; n < numNodes; ++n)
            putWord(bytes, size_t(n) * nodeBytes + nodePot,
                    rng.range(2000));
        mod->setData(nodes, std::move(bytes));
    }
    Addr listHead = allocLinkedList(*mod, "tree", listNodes, 2, rng);
    Addr acc = mod->allocData("acc", 8);

    Function &scan = mod->createFunction("scan_arcs");
    emitScanArcs(scan);
    Function &chase = mod->createFunction("chase");
    emitChase(chase);

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        b.li(a0, std::int64_t(arcHeadAddr));
        b.li(a2, std::int64_t(nodes));
        b.call(scan.id());
        b.li(a0, std::int64_t(listHead));
        b.li(a1, std::int64_t(acc));
        b.call(chase.id());
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
