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
            if (m.inFrontend(i))
                break;
            // Its first issue check is next cycle.
            const Readiness r =
                m.readiness(i, t, m.now + 1);
            if (!m.roomFor(r)) {
                if (r.blocker)
                    ++m.res.divertQueueFullStalls;
                break;
            }
            if (!m.robAllowed(pos))
                break;
            if (r.blocker) {
                m.enterDivert(i, r.blocker);
                ++t.divertedCount;
                ++m.res.instrsDiverted;
            } else {
                m.enterSched(i, r.wait);
            }
            ++m.robUsed;
            ++t.robHeld;
            ++t.dispIdx;
            --budget;
        }
    }
}

} // namespace polyflow::sim
