/**
 * @file
 * quickstart: the smallest end-to-end tour of the library.
 *
 * 1. Build a program (the paper's Figure 1 loop) with FunctionBuilder.
 * 2. Compute its postdominator tree.
 * 3. Identify and classify spawn points.
 * 4. Run it functionally with the low-level golden model, then hand
 *    it to polyflow::Session for the timing comparison: superscalar
 *    baseline vs. PolyFlow with control-equivalent spawning.
 */

#include <iostream>

#include "analysis/cfg_view.hh"
#include "analysis/dominators.hh"
#include "ir/builder.hh"
#include "polyflow.hh"

using namespace polyflow;

// The paper's Figure 1: a loop A,B,{C|D},E,F with an if-then-else
// inside. The data word stream drives the inner branch. Blocks are
// laid out in creation order, so a block without a terminator falls
// through to the next one.
static std::unique_ptr<Module>
buildFigure1()
{
    auto mod = std::make_unique<Module>("figure1");
    Addr words = mod->allocData("words", 4096);
    FunctionBuilder b(mod->createFunction("main"));
    BlockId A = b.newBlock("A"), B = b.newBlock("B"),
            C = b.newBlock("C"), D = b.newBlock("D"),
            E = b.newBlock("E"), F = b.newBlock("F"),
            X = b.newBlock("X");

    b.li(reg::t0, 512);                  // loop trips
    b.li(reg::t1, std::int64_t(words));  // data cursor
    b.li(reg::t3, 0);                    // accumulator
    b.setBlock(A);
    b.ld(reg::t2, reg::t1, 0);
    b.setBlock(B);         // the if-then-else branch
    b.beq(reg::t2, reg::zero, D);
    b.setBlock(C);         // then
    b.addi(reg::t3, reg::t3, 1);
    b.jump(E);
    b.setBlock(D);         // else
    b.addi(reg::t3, reg::t3, 2);
    b.setBlock(E);         // the join
    b.add(reg::t3, reg::t3, reg::t2);
    b.setBlock(F);         // the loop branch
    b.addi(reg::t1, reg::t1, 8);
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, A);
    b.setBlock(X);
    b.halt();
    return mod;
}

int
main()
{
    auto mod = buildFigure1();
    // Pseudo-random branch data so B is hard to predict.
    std::uint64_t x = 0x1234;
    for (int i = 0; i < 512; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mod->setData64(mod->dataAddr("words") + 8 * i, x & 1);
    }
    LinkedProgram prog = mod->link();

    // --- Static analysis, built by hand to show the pieces.
    const Function &fn = mod->function(0);
    CfgView cfg(fn);
    PostDominatorTree pdt(cfg);

    std::cout << "immediate postdominators (paper Figure 2):\n";
    for (size_t b = 0; b < fn.numBlocks(); ++b) {
        BlockId ip = pdt.ipdomBlock(BlockId(b));
        std::cout << "  " << fn.block(BlockId(b)).name() << " -> "
                  << (ip == invalidBlock ? "exit"
                                         : fn.block(ip).name())
                  << "\n";
    }

    // --- Functional execution with the low-level golden model
    // (Session would do this for us, but the final architectural
    // state is only visible down here).
    FunctionalOptions opt;
    opt.recordTrace = true;
    auto fr = runFunctional(prog, opt);
    std::cout << "\nfunctional run: " << fr.instrCount
              << " instructions, accumulator = "
              << fr.finalState->readReg(reg::t3) << "\n";

    // --- The same pipeline through the front door: adopt the
    // hand-built program into a Session and let it wire trace ->
    // analysis -> hint table -> timing simulation.
    Workload w{"figure1", std::move(mod), std::move(prog)};
    Session s = Session::adopt(std::move(w));

    std::cout << "\nspawn points:\n";
    for (const SpawnPoint &p : s.analysis().points())
        std::cout << "  " << p.toString() << "\n";

    TimingResult ss = s.simulate(driver::runTable().superscalar);
    TimingResult pf = s.simulate(*driver::runByLabel("postdoms"));

    std::cout << "\nsuperscalar: " << ss.cycles << " cycles (IPC "
              << ss.ipc() << ", " << ss.branchMispredicts
              << " mispredicts)\n";
    std::cout << "PolyFlow:    " << pf.cycles << " cycles (IPC "
              << pf.ipc() << ", " << pf.spawns << " spawns) -> "
              << pf.speedupOver(ss) << "% speedup\n";
    return 0;
}
