/**
 * @file
 * workload_stats: characterize the synthetic benchmark suite the
 * way an architecture paper would — dynamic instruction mix, branch
 * behaviour, static code size and spawn-point census — so readers
 * can compare the suite's character against the SPEC2000 programs
 * it stands in for.
 */

#include <iostream>

#include "polyflow.hh"
#include "stats/table.hh"

using namespace polyflow;

int
main(int argc, char **argv)
{
    double scale =
        argc > 1 ? driver::parseScale("scale", argv[1]) : 0.25;

    Table t({"benchmark", "dynInstrs", "loads%", "stores%",
             "branches%", "calls%", "brMisp%", "ssIPC",
             "staticInstrs", "spawnPts"});

    for (const std::string &name : allWorkloadNames()) {
        Session s = Session::open(name, scale);
        const Trace &trace = s.trace();

        std::uint64_t loads = 0, stores = 0, branches = 0, calls = 0;
        for (TraceIdx i = 0; i < trace.size(); ++i) {
            const Instruction &in = trace.staticOf(i).instr;
            loads += in.isLoad();
            stores += in.isStore();
            branches += in.isCondBranch();
            calls += in.isCall();
        }
        TimingResult ss = s.simulate(driver::runTable().superscalar);

        double n = double(trace.size());
        t.startRow();
        t.cell(name);
        t.cell((long long)trace.size());
        t.cell(100.0 * loads / n, 1);
        t.cell(100.0 * stores / n, 1);
        t.cell(100.0 * branches / n, 1);
        t.cell(100.0 * calls / n, 1);
        t.cell(branches ? 100.0 * ss.branchMispredicts / branches
                        : 0.0,
               1);
        t.cell(ss.ipc());
        t.cell((long long)s.program().size());
        t.cell((long long)s.analysis().points().size());
    }
    t.print(std::cout);
    return 0;
}
