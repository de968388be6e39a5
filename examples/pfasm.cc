/**
 * @file
 * pfasm: assemble and run a PRISC assembly file.
 *
 * Usage: pfasm FILE.pasm [options]
 *   --cleanup       run the CFG cleanup transforms before linking
 *   --disasm        print the linked disassembly
 *   --trace-stats   print dynamic instruction statistics
 *   --sim           also run the timing simulator (superscalar and
 *                   PolyFlow postdoms) and report speedup
 *   --dump-regs     print non-zero registers after the run
 *
 * Sample programs live in examples/programs/.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "asm/assembler.hh"
#include "ir/transforms.hh"
#include "ir/printer.hh"
#include "polyflow.hh"

using namespace polyflow;

int
main(int argc, char **argv)
{
    std::string path;
    bool disasm = false, traceStats = false, sim = false,
         dumpRegs = false, cleanup = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--disasm")
            disasm = true;
        else if (a == "--cleanup")
            cleanup = true;
        else if (a == "--trace-stats")
            traceStats = true;
        else if (a == "--sim")
            sim = true;
        else if (a == "--dump-regs")
            dumpRegs = true;
        else if (!a.empty() && a[0] == '-') {
            std::cerr << "unknown option " << a << "\n";
            return 2;
        } else {
            path = a;
        }
    }
    if (path.empty()) {
        std::cerr << "usage: pfasm FILE.pasm [--disasm] "
                     "[--trace-stats] [--sim] [--dump-regs]\n";
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }
    std::ostringstream src;
    src << in.rdbuf();

    std::unique_ptr<Module> mod;
    try {
        mod = assemble(src.str(), path);
    } catch (const AsmError &e) {
        std::cerr << path << ":" << e.what() << "\n";
        return 1;
    }
    if (cleanup) {
        int changes = cleanupModule(*mod);
        std::cout << "cleanup: " << changes << " changes\n";
    }
    LinkedProgram prog = mod->link();
    if (disasm)
        disassemble(std::cout, prog);

    FunctionalOptions opt;
    opt.recordTrace = sim || traceStats;
    auto r = runFunctional(prog, opt);
    std::cout << (r.halted ? "halted" : "instruction cap hit")
              << " after " << r.instrCount << " instructions\n";

    if (dumpRegs) {
        for (int reg_i = 1; reg_i < numArchRegs; ++reg_i) {
            std::int64_t v = r.finalState->readReg(RegId(reg_i));
            if (v != 0)
                std::cout << "  r" << reg_i << " = " << v << "\n";
        }
    }
    if (traceStats) {
        std::uint64_t br = 0, taken = 0, mem = 0;
        for (TraceIdx i = 0; i < r.trace.size(); ++i) {
            const Instruction &insn = r.trace.staticOf(i).instr;
            br += insn.isCondBranch();
            taken += insn.isCondBranch() && r.trace.instrs[i].taken();
            mem += insn.isMem();
        }
        std::cout << "  branches: " << br << " (" << taken
                  << " taken), memory ops: " << mem << "\n";
    }
    if (sim && r.trace.size() > 0) {
        TimingResult ss = runTiming(MachineConfig::superscalar(),
                                r.trace, nullptr, "superscalar");
        SpawnAnalysis sa(*mod, prog);
        StaticSpawnSource srcTab{
            HintTable(sa, SpawnPolicy::postdoms())};
        TimingResult pf =
            runTiming(MachineConfig{}, r.trace, &srcTab, "postdoms");
        std::cout << "  superscalar: " << ss.cycles << " cycles (IPC "
                  << ss.ipc() << ")\n"
                  << "  PolyFlow:    " << pf.cycles << " cycles (IPC "
                  << pf.ipc() << ", " << pf.spawns << " spawns, "
                  << pf.speedupOver(ss) << "% speedup)\n";
    }
    return 0;
}
