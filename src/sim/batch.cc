#include "sim/batch.hh"

#include <stdexcept>

#include "sim/accounting.hh"
#include "sim/stage_timer.hh"

namespace polyflow::sim {

namespace {

/** The deadlock diagnostic: which machine hung, and the state of
 *  its pipeline and task table. */
[[noreturn]] void
throwCycleLimit(const MachineState &m)
{
    std::string msg =
        "MachineBatch: cycle limit exceeded (deadlock?) in \"" +
        m.res.policyName + "\" at commitIdx " +
        std::to_string(m.commitIdx) + " stage=" +
        std::to_string(int(m.istate[m.commitIdx].stage)) +
        " sched=" + std::to_string(m.sched.size()) +
        " divert=" + std::to_string(m.divert.size()) +
        " rob=" + std::to_string(m.robUsed) + " tasks=[";
    for (const Task &t : m.tasks) {
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

} // namespace

MachineBatch::MachineBatch(const MachineConfig &config)
    : _cfg(config)
{
}

MachineBatch::~MachineBatch() = default;

size_t
MachineBatch::add(const Trace &trace, SpawnSource *source,
                  const TraceIndex *index, std::string label,
                  std::vector<TaskEvent> *events)
{
    if (_ran)
        throw std::runtime_error("MachineBatch::add after run");
    auto m = std::make_unique<MachineState>(_cfg, trace, source,
                                            index);
    m->events = events;
    m->res.policyName = std::move(label);
    m->res.instrs = trace.size();
    m->res.issueWidth = std::uint64_t(_cfg.pipelineWidth);
    _machines.push_back(std::move(m));
    return _machines.size() - 1;
}

/*
 * The stage-major loop, the only cycle loop of the timing model.
 * Per machine and cycle the stage sequence is
 *
 *   unblock -> commit -> [finish?] -> accounting -> divert-release
 *   -> issue -> rename -> fetch(+spawn) -> violations/squash
 *
 * and each stage runs over every live machine before the next stage
 * starts, so the stage's code and lookup tables stay resident
 * across the batch. Machines are independent, so a machine's result
 * does not depend on the batch it rides in.
 */
std::vector<TimingResult>
MachineBatch::run()
{
    if (_ran)
        throw std::runtime_error("MachineBatch::run called twice");
    _ran = true;

    // The live set, in add order; machines leave it as they finish.
    std::vector<MachineState *> live;
    live.reserve(_machines.size());
    for (const auto &m : _machines)
        live.push_back(m.get());
    if (_profile)
        _profile->machines += live.size();

    auto slot = [this](std::uint64_t StageProfile::*field) {
        return _profile ? &(_profile->*field) : nullptr;
    };

    while (!live.empty()) {
        {
            ScopedNs t(slot(&StageProfile::commitNs));
            for (MachineState *m : live) {
                _commit.unblock(*m);
                _commit.step(*m);
            }
        }
        // Machines whose last instruction just committed finish on
        // this partial cycle, which does not advance their clock and
        // is not accounted (keeping sum(slots) == cycles *
        // issueWidth exact), and drop out of the live set without
        // disturbing the others.
        std::erase_if(live, [](MachineState *m) {
            if (m->commitIdx < m->trace->size())
                return false;
            m->res.cycles = m->now;
            m->res.icacheMisses = m->hier.l1i().misses();
            m->res.dcacheMisses = m->hier.l1d().misses();
            return true;
        });
        if (live.empty())
            break;

        {
            ScopedNs t(slot(&StageProfile::accountingNs));
            for (MachineState *m : live)
                accountCycle(*m);
        }
        {
            ScopedNs t(slot(&StageProfile::divertNs));
            for (MachineState *m : live)
                _backend.releaseDiverted(*m);
        }
        {
            ScopedNs t(slot(&StageProfile::issueNs));
            for (MachineState *m : live)
                _backend.issue(*m);
        }
        {
            ScopedNs t(slot(&StageProfile::renameNs));
            for (MachineState *m : live)
                _rename.step(*m);
        }
        {
            ScopedNs t(slot(&StageProfile::fetchNs));
            for (MachineState *m : live) {
                _frontend.fetch(*m);
                _frontend.applySpawn(*m);
            }
        }
        {
            ScopedNs t(slot(&StageProfile::recoveryNs));
            for (MachineState *m : live)
                _recovery.step(*m);
        }
        for (MachineState *m : live) {
            if (++m->now > std::uint64_t(200) * m->trace->size() +
                    1'000'000)
                throwCycleLimit(*m);
        }
        if (_profile)
            _profile->cycles += live.size();
    }

    std::vector<TimingResult> out;
    out.reserve(_machines.size());
    for (const auto &m : _machines)
        out.push_back(std::move(m->res));
    return out;
}

} // namespace polyflow::sim
