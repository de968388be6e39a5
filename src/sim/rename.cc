#include "sim/stages.hh"

namespace polyflow::sim {

void
dispatch(MachineState &m)
{
    int budget = m.cfg.pipelineWidth;
    for (size_t pos = 0; pos < m.tasks.size() && budget > 0;
         ++pos) {
        Task &t = m.tasks[pos];
        while (budget > 0 && t.dispIdx < t.fetchIdx) {
            TraceIdx i = t.dispIdx;
            InstrState &s = m.istate[i];
            if (std::uint64_t(s.fetchCycle) + m.cfg.frontendDepth >
                m.now)
                break;
            const DynInstr &d = m.trace->instrs[i];

            if (Blocker b = m.divertBlocker(i, d, t)) {
                if (static_cast<int>(m.divert.size()) >=
                        m.cfg.divertEntries ||
                    !m.robAllowed(pos)) {
                    if (static_cast<int>(m.divert.size()) >=
                        m.cfg.divertEntries) {
                        ++m.res.divertQueueFullStalls;
                    }
                    break;
                }
                s.stage = InstrStage::Diverted;
                m.divert.push_back({i, b});
                ++m.robUsed;
                ++t.robHeld;
                ++t.dispIdx;
                ++t.divertedCount;
                --budget;
                ++m.res.instrsDiverted;
            } else {
                if (static_cast<int>(m.sched.size()) >=
                        m.cfg.schedEntries ||
                    !m.robAllowed(pos)) {
                    break;
                }
                s.stage = InstrStage::InSched;
                m.sched.push_back({i});
                ++m.robUsed;
                ++t.robHeld;
                ++t.dispIdx;
                --budget;
            }
        }
    }
}

} // namespace polyflow::sim
