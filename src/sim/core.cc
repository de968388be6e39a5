#include "sim/core.hh"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "sim/stages.hh"

namespace polyflow {

namespace {

using sim::MachineState;

/** The deadlock diagnostic: which run hung, and the state of its
 *  pipeline and task table. */
[[noreturn]] void
throwCycleLimit(const MachineState &m)
{
    std::ostringstream msg;
    msg << "TimingSim: cycle limit exceeded (deadlock?) in \""
        << m.res.policyName << "\" at commitIdx " << m.commitIdx
        << " stage=" << int(m.istate[m.commitIdx].stage)
        << " sched=" << m.sched.size() << " divert=" << m.divert.size()
        << " rob=" << m.robUsed << " tasks=[";
    for (const sim::Task &t : m.tasks) {
        msg << "(" << t.begin << "," << t.end << ",f" << t.fetchIdx
            << ",d" << t.dispIdx << ",blk"
            << (t.blockedOnBranch == invalidTrace
                    ? -1
                    : int(t.blockedOnBranch))
            << ",rdy" << t.fetchReady << ")";
    }
    msg << "]";
    throw std::runtime_error(msg.str());
}

/** sim::step's body, always inlined, so runMachine's loop pays no
 *  call per cycle. With a @p profile it reads the clock once per
 *  stage boundary and charges each stage the time since the last
 *  read; without one it reads no clock. */
[[gnu::always_inline]] inline bool
stepCycle(MachineState &m, StageProfile *profile)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point last;
    if (profile)
        last = Clock::now();
    auto lap = [&](std::uint64_t StageProfile::*field) {
        if (profile) {
            const Clock::time_point t = Clock::now();
            profile->*field += std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - last)
                    .count());
            last = t;
        }
    };
    sim::commit(m);
    lap(&StageProfile::commitNs);
    // The cycle that commits the last instruction is partial: it
    // does not advance the clock and is not accounted, keeping
    // sum(slots) == cycles * issueWidth exact.
    if (m.commitIdx >= m.trace->size())
        return false;
    sim::accountCycle(m);
    lap(&StageProfile::accountingNs);
    sim::releaseDiverted(m);
    lap(&StageProfile::divertNs);
    sim::issue(m);
    lap(&StageProfile::issueNs);
    sim::dispatch(m);
    lap(&StageProfile::renameNs);
    sim::fetch(m);
    sim::applySpawn(m);
    lap(&StageProfile::fetchNs);
    sim::recover(m);
    lap(&StageProfile::recoveryNs);
    ++m.now;
    if (profile)
        ++profile->cycles;
    return true;
}

/*
 * The cycle loop of the timing model: one machine, from its first
 * fetch to its last commit, one step per cycle. The MachineState
 * lives only for this call, so a caller running many machines holds
 * one state at a time.
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
    if (profile)
        ++profile->machines;

    while (stepCycle(m, profile)) {
        if (m.now > m.cycleLimit)
            throwCycleLimit(m);
    }

    m.res.cycles = m.now;
    m.res.icacheMisses = m.hier.l1i().misses();
    m.res.dcacheMisses = m.hier.l1d().misses();
    return std::move(m.res);
}

} // namespace

bool
sim::step(MachineState &m, StageProfile *profile)
{
    return stepCycle(m, profile);
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
          const TraceIndex *sharedIndex, std::vector<TaskEvent> *events)
{
    return runMachine(config, {&trace, source, sharedIndex, name, events},
                      nullptr);
}

} // namespace polyflow
