/**
 * @file
 * Regression tests pinning each synthetic workload's architectural
 * character — the properties DESIGN.md engineers them to have
 * (branch hardness, call density, I-cache footprint, pointer
 * chasing). If a workload edit drifts away from its SPEC namesake's
 * mechanism, a test here fails.
 */

#include <gtest/gtest.h>

#include <map>

#include "polyflow.hh"

namespace polyflow {
namespace {

struct Character
{
    double mispredictRate = 0;  // % of conditional branches
    double branchFrac = 0;      // % of dynamic instructions
    double callFrac = 0;
    double loadFrac = 0;
    double ssIpc = 0;
    std::uint64_t icacheMisses = 0;
};

const Character &
characterOf(const std::string &name)
{
    static std::map<std::string, Character> cache;
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;

    Session s = Session::open(name, 0.2);
    const Trace &t = s.trace();
    Character c;
    std::uint64_t branches = 0, calls = 0, loads = 0;
    for (TraceIdx i = 0; i < t.size(); ++i) {
        const Instruction &in = t.staticOf(i).instr;
        branches += in.isCondBranch();
        calls += in.isCall();
        loads += in.isLoad();
    }
    TimingResult ss = s.simulate(driver::runTable().superscalar);
    double n = double(t.size());
    c.branchFrac = 100.0 * branches / n;
    c.callFrac = 100.0 * calls / n;
    c.loadFrac = 100.0 * loads / n;
    c.mispredictRate =
        branches ? 100.0 * ss.branchMispredicts / branches : 0;
    c.ssIpc = ss.ipc();
    c.icacheMisses = ss.icacheMisses;
    return cache.emplace(name, c).first->second;
}

TEST(WorkloadCharacter2, HardBranchBenchmarks)
{
    // crafty / mcf / twolf / vpr.place live on hard branches.
    for (const char *n : {"crafty", "mcf", "twolf", "vpr.place"}) {
        EXPECT_GT(characterOf(n).mispredictRate, 12.0) << n;
        EXPECT_LT(characterOf(n).ssIpc, 2.6) << n;
    }
}

TEST(WorkloadCharacter2, PredictableBenchmarks)
{
    for (const char *n : {"bzip2", "gzip", "gap"}) {
        EXPECT_LT(characterOf(n).mispredictRate, 8.0) << n;
        EXPECT_GT(characterOf(n).ssIpc, 2.3) << n;
    }
}

TEST(WorkloadCharacter2, CallHeavyBenchmarks)
{
    // vortex and gap have the suite's call density and I-footprint.
    EXPECT_GT(characterOf("vortex").icacheMisses, 400u);
    EXPECT_GT(characterOf("gap").icacheMisses, 150u);
    // Low-footprint benchmarks barely miss.
    EXPECT_LT(characterOf("twolf").icacheMisses, 50u);
    EXPECT_LT(characterOf("gzip").icacheMisses, 50u);
}

TEST(WorkloadCharacter2, MemoryIntensityBands)
{
    // mcf and twolf are the pointer chasers.
    EXPECT_GT(characterOf("mcf").loadFrac, 25.0);
    EXPECT_GT(characterOf("twolf").loadFrac, 18.0);
    // gap's kernels are arithmetic-dense.
    EXPECT_LT(characterOf("gap").loadFrac, 8.0);
}

TEST(WorkloadCharacter2, ParserHasRealCallDensity)
{
    EXPECT_GT(characterOf("parser").callFrac, 2.0);
}

TEST(WorkloadCharacter2, InterpreterHasLowIpc)
{
    // perlbmk's indirect dispatch keeps the superscalar near 1 IPC.
    EXPECT_LT(characterOf("perlbmk").ssIpc, 1.6);
}

TEST(WorkloadCharacter2, BaselineIpcsSpreadLikeThePaper)
{
    // The paper's superscalar IPCs span 1.33..2.8; ours span a
    // comparable (slightly wider) band.
    double lo = 1e9, hi = 0;
    for (const std::string &n : allWorkloadNames()) {
        lo = std::min(lo, characterOf(n).ssIpc);
        hi = std::max(hi, characterOf(n).ssIpc);
    }
    EXPECT_LT(lo, 1.6);
    EXPECT_GT(hi, 2.4);
    EXPECT_GT(lo, 0.6);
    EXPECT_LT(hi, 6.0);
}

} // namespace
} // namespace polyflow
