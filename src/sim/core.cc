#include "sim/core.hh"

#include <stdexcept>

#include "sim/accounting.hh"
#include "sim/backend.hh"
#include "sim/commit.hh"
#include "sim/frontend.hh"
#include "sim/machine_state.hh"
#include "sim/recovery.hh"
#include "sim/rename.hh"
#include "sim/stage_timer.hh"

namespace polyflow {

namespace {

using sim::MachineState;

/** The deadlock diagnostic: which run hung, and the state of its
 *  pipeline and task table. */
[[noreturn]] void
throwCycleLimit(const MachineState &m)
{
    std::string msg =
        "TimingSim: cycle limit exceeded (deadlock?) in \"" +
        m.res.policyName + "\" at commitIdx " +
        std::to_string(m.commitIdx) + " stage=" +
        std::to_string(int(m.istate[m.commitIdx].stage)) +
        " sched=" + std::to_string(m.sched.size()) +
        " divert=" + std::to_string(m.divert.size()) +
        " rob=" + std::to_string(m.robUsed) + " tasks=[";
    for (const sim::Task &t : m.tasks) {
        msg += "(" + std::to_string(t.begin) + "," +
            std::to_string(t.end) + ",f" +
            std::to_string(t.fetchIdx) + ",d" +
            std::to_string(t.dispIdx) + ",blk" +
            std::to_string(t.blockedOnBranch == invalidTrace
                               ? -1
                               : int(t.blockedOnBranch)) +
            ",rdy" + std::to_string(t.fetchReady) + ")";
    }
    msg += "]";
    throw std::runtime_error(msg);
}

/*
 * The cycle loop of the timing model: one machine, from its first
 * fetch to its last commit. Per cycle the stage sequence is
 *
 *   unblock -> commit -> [finish?] -> accounting -> divert-release
 *   -> issue -> rename -> fetch(+spawn) -> violations/squash
 *
 * The MachineState lives only for this call, so a caller running
 * many machines holds one state at a time.
 */
TimingResult
runMachine(const MachineConfig &cfg, const BatchItem &item,
           StageProfile *profile)
{
    MachineState m(cfg, *item.trace, item.source, item.index);
    m.events = item.events;
    m.res.policyName = item.label;
    m.res.instrs = item.trace->size();
    m.res.issueWidth = std::uint64_t(cfg.pipelineWidth);
    const std::uint64_t cycleLimit =
        std::uint64_t(200) * item.trace->size() + 1'000'000;

    sim::Frontend frontend;
    sim::Rename rename;
    sim::Backend backend;
    sim::Commit commit;
    sim::Recovery recovery;

    auto slot = [profile](std::uint64_t StageProfile::*field) {
        return profile ? &(profile->*field) : nullptr;
    };
    if (profile)
        ++profile->machines;

    for (;;) {
        {
            sim::ScopedNs t(slot(&StageProfile::commitNs));
            commit.unblock(m);
            commit.step(m);
        }
        // The cycle that commits the last instruction is partial: it
        // does not advance the clock and is not accounted, keeping
        // sum(slots) == cycles * issueWidth exact.
        if (m.commitIdx >= m.trace->size())
            break;
        {
            sim::ScopedNs t(slot(&StageProfile::accountingNs));
            sim::accountCycle(m);
        }
        {
            sim::ScopedNs t(slot(&StageProfile::divertNs));
            backend.releaseDiverted(m);
        }
        {
            sim::ScopedNs t(slot(&StageProfile::issueNs));
            backend.issue(m);
        }
        {
            sim::ScopedNs t(slot(&StageProfile::renameNs));
            rename.step(m);
        }
        {
            sim::ScopedNs t(slot(&StageProfile::fetchNs));
            frontend.fetch(m);
            frontend.applySpawn(m);
        }
        {
            sim::ScopedNs t(slot(&StageProfile::recoveryNs));
            recovery.step(m);
        }
        if (++m.now > cycleLimit)
            throwCycleLimit(m);
        if (profile)
            ++profile->cycles;
    }

    m.res.cycles = m.now;
    m.res.icacheMisses = m.hier.l1i().misses();
    m.res.dcacheMisses = m.hier.l1d().misses();
    return std::move(m.res);
}

} // namespace

TimingSim::TimingSim(const MachineConfig &config, const Trace &trace,
                     SpawnSource *source,
                     const TraceIndex *sharedIndex)
    : _cfg(config), _trace(&trace), _source(source),
      _index(sharedIndex)
{
    if (trace.size() == 0)
        throw std::runtime_error("TimingSim: empty trace");
}

TimingResult
TimingSim::run(const std::string &policyName)
{
    if (_ran)
        throw std::runtime_error("TimingSim::run called twice");
    _ran = true;
    return runMachine(_cfg,
                      {_trace, _source, _index, policyName, _events},
                      _profile);
}

std::vector<TimingResult>
TimingSim::runBatch(const MachineConfig &config,
                    std::span<const BatchItem> items,
                    StageProfile *profile)
{
    std::vector<TimingResult> out;
    out.reserve(items.size());
    for (const BatchItem &item : items)
        out.push_back(runMachine(config, item, profile));
    return out;
}

TimingResult
runTiming(const MachineConfig &config, const Trace &trace,
          SpawnSource *source, const std::string &name,
          const TraceIndex *sharedIndex)
{
    TimingSim sim(config, trace, source, sharedIndex);
    return sim.run(name);
}

} // namespace polyflow
