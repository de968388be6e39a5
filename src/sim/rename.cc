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
            const InstrState &s = m.istate[i];
            if (std::uint64_t(s.fetchCycle) + frontendDepth > m.now)
                break;
            // Its first issue check is next cycle.
            const SyncCheck sync =
                m.syncCheck(m.trace->instrs[i], t, m.now + 1);

            if (const Blocker b = sync.blocker) {
                if (m.divert.size() >= m.cfg.divertEntries ||
                    !m.robAllowed(pos)) {
                    if (m.divert.size() >= m.cfg.divertEntries)
                        ++m.res.divertQueueFullStalls;
                    break;
                }
                m.enterDivert(i, b);
                ++m.robUsed;
                ++t.robHeld;
                ++t.dispIdx;
                ++t.divertedCount;
                --budget;
                ++m.res.instrsDiverted;
            } else {
                if (m.sched.size() >= m.cfg.schedEntries ||
                    !m.robAllowed(pos)) {
                    break;
                }
                m.enterSched(i, sync.wait);
                ++m.robUsed;
                ++t.robHeld;
                ++t.dispIdx;
                --budget;
            }
        }
    }
}

} // namespace polyflow::sim
