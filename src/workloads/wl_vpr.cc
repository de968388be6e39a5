/**
 * @file
 * vpr.place and vpr.route.
 *
 * vpr.place: simulated-annealing flavour — a move loop that
 * computes a swap cost over a small neighbor set and accepts or
 * rejects on a data-dependent ~50% branch, swapping on accept.
 * Loop-iteration and hammock spawns both matter.
 *
 * vpr.route: maze-routing flavour — an outer loop over independent
 * nets, each expanding a short path through a shared cost grid and
 * writing to a private output slot. Outer iterations are data
 * independent, so loop fall-through spawns expose the outer-loop
 * parallelism that made vpr.route the paper's loopFT showcase.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

/**
 * Emit try_moves(a0 = cells, a1 = move list, a2 = count,
 * a3 = accept-noise words): per move, compute the cost of swapping
 * two cells against four neighbors and accept on a hard branch.
 */
void
emitTryMoves(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("move_loop");
    BlockId nbr = b.newBlock("nbr_loop");
    BlockId nbrAbs = b.newBlock("nbr_abs");
    BlockId nbrNext = b.newBlock("nbr_next");
    BlockId decide = b.newBlock("decide");
    BlockId accept = b.newBlock("accept");
    BlockId latch = b.newBlock("latch");
    BlockId exit = b.newBlock("exit");

    b.mov(s1, a2);          // remaining moves
    b.ld(s3, a3, 0);        // RNG state (annealing walk)
    b.jump(loop);

    // Move selection draws from the RNG state, which the accept
    // test below advances — move k+1's cells are unknown until
    // move k's decision, as in a real annealer.
    b.setBlock(loop);
    b.srli(t0, s3, 5);
    b.andi(t0, t0, 127);    // cell index x
    b.srli(t1, s3, 13);
    b.andi(t1, t1, 127);    // cell index y
    b.slli(t0, t0, 3);
    b.slli(t1, t1, 3);
    b.add(t0, t0, a0);
    b.add(t1, t1, a0);
    b.ld(t2, t0, 0);        // pos x
    b.ld(t3, t1, 0);        // pos y
    b.li(t4, 0);            // delta
    b.li(t5, 4);            // neighbors left
    b.jump(nbr);

    // Neighbor cost: |posx - posy + k| folded into delta.
    b.setBlock(nbr);
    b.sub(t6, t2, t3);
    b.add(t6, t6, t5);
    b.bgez(t6, nbrNext);
    b.setBlock(nbrAbs);
    b.sub(t6, zero, t6);
    b.setBlock(nbrNext);
    b.add(t4, t4, t6);
    b.srli(t7, t4, 1);
    b.xor_(t4, t4, t7);
    b.addi(t5, t5, -1);
    b.bne(t5, zero, nbr);

    // Accept test: delta bit mixed with the in-body LCG state
    // (~50% taken); the LCG update is the loop-carried chain that
    // real annealing acceptance implies.
    b.setBlock(decide);
    b.li(t6, 6364136223846793005);
    b.mul(s3, s3, t6);
    b.addi(s3, s3, 1442695040888963407);
    b.srli(t6, s3, 33);
    b.xor_(t7, t4, t6);
    b.andi(t7, t7, 1);
    b.beq(t7, zero, latch); // reject

    b.setBlock(accept);
    b.sd(t3, t0, 0);        // swap positions
    b.sd(t2, t1, 0);

    b.setBlock(latch);
    b.addi(s1, s1, -1);
    b.bne(s1, zero, loop);
    b.setBlock(exit);
    b.sd(s3, a3, 0);
    b.ret();
}

/**
 * Emit route_net(a0 = net path array, a1 = path length,
 * a2 = cost grid, a3 = out slot): accumulate grid costs along the
 * path and store the total to the net's private slot.
 */
void
emitRouteNet(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId loop = b.newBlock("hop_loop");
    BlockId bend = b.newBlock("bend");
    BlockId cont = b.newBlock("cont");
    BlockId exit = b.newBlock("exit");

    b.mov(t0, a0);
    b.mov(t1, a1);
    b.li(t2, 0);            // accumulated cost
    b.jump(loop);

    b.setBlock(loop);
    b.ld(t3, t0, 0);        // grid index
    b.slli(t4, t3, 3);
    b.add(t4, t4, a2);
    b.ld(t5, t4, 0);        // grid cost
    b.add(t2, t2, t5);
    b.andi(t6, t3, 3);      // bend penalty ~25% taken
    b.bne(t6, zero, cont);
    b.setBlock(bend);
    b.addi(t2, t2, 9);
    // Routing through a bend raises this cell's congestion cost,
    // which later nets observe (shared-grid coupling, as in the
    // real router's pathfinder loop).
    b.addi(t5, t5, 1);
    b.sd(t5, t4, 0);
    b.setBlock(cont);
    b.addi(t0, t0, 8);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.setBlock(exit);
    b.sd(t2, a3, 0);
    b.ret();
}

} // namespace

Workload
buildVprPlace(double scale)
{
    auto mod = std::make_unique<Module>("vpr.place");
    WlRng rng(0x9face);

    int numCells = 128;
    int numMoves = 48;
    int iters = std::max(1, int(95 * scale));

    Addr cells = allocRandomWords(*mod, "cells", numCells, rng, 0xfff);
    Addr seed = allocRandomWords(*mod, "seed", 1, rng);
    Addr moves = allocWords(*mod, "moves", numMoves * 2,
                            [&](size_t) { return rng.range(numCells); });

    Function &tryMoves = mod->createFunction("try_moves");
    emitTryMoves(tryMoves);

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        b.li(a0, std::int64_t(cells));
        b.li(a1, std::int64_t(moves));
        b.li(a2, numMoves);
        b.li(a3, std::int64_t(seed));
        b.call(tryMoves.id());
    });
    return finishWorkload(std::move(mod));
}

Workload
buildVprRoute(double scale)
{
    auto mod = std::make_unique<Module>("vpr.route");
    WlRng rng(0x907e);

    int gridWords = 256;
    int numNets = 48;
    int pathLen = 12;
    int iters = std::max(1, int(42 * scale));

    Addr grid = allocRandomWords(*mod, "grid", gridWords, rng, 0xff);
    Addr paths = allocWords(*mod, "paths", numNets * pathLen,
                            [&](size_t) { return rng.range(gridWords); });
    Addr outs = mod->allocData("net_costs", numNets * 8);

    Function &route = mod->createFunction("route_net");
    emitRouteNet(route);

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        BlockId nets = b.newBlock("net_loop");
        BlockId netLatch = b.newBlock("net_latch");
        BlockId outerLatch = b.newBlock("outer_latch");
        b.li(s0, 0);            // net index
        b.jump(nets);

        // Per-net work is fully independent of other nets: outer
        // loop fall-through spawns overlap whole nets.
        b.setBlock(nets);
        b.li(t8, pathLen * 8);
        b.mul(a0, s0, t8);
        b.li(t8, std::int64_t(paths));
        b.add(a0, a0, t8);
        b.li(a1, pathLen);
        b.li(a2, std::int64_t(grid));
        b.slli(a3, s0, 3);
        b.li(t8, std::int64_t(outs));
        b.add(a3, a3, t8);
        b.call(route.id());
        b.setBlock(netLatch);
        b.addi(s0, s0, 1);
        b.slti(t8, s0, numNets);
        b.bne(t8, zero, nets);
        b.setBlock(outerLatch);
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
