#include "sim/stages.hh"

#include <algorithm>

namespace polyflow::sim {

namespace {

/** Biased-ICount: tie-bias toward older tasks. Kept small so the
 *  tail task still fetches often enough to keep spawning. */
constexpr long long ageBias = 1;

/** The Task Spawn Unit's look at fetched instruction @p i of the
 *  task at position @p pos. */
void
maybeSpawn(MachineState &m, size_t pos, TraceIdx i,
           const LinkedInstr &li)
{
    Task &t = m.tasks[pos];
    if (!m.source)
        return;
    bool isTail = &t == &m.tasks.back();
    if (!m.cfg.spawnFromAnyTask && !isTail)
        return;  // only the tail task may spawn (paper baseline)
    if (m.pending.valid)
        return;  // one spawn-unit port per cycle
    std::erase_if(m.ghosts,
                  [&](std::uint64_t e) { return e <= m.now; });
    if (static_cast<int>(m.tasks.size() + m.ghosts.size()) >=
        m.cfg.numTasks) {
        ++m.res.spawnsSkippedNoContext;
        return;
    }
    auto hint = m.source->query(li);
    if (!hint)
        return;
    const DynInstr &d = m.trace->instrs[i];
    if (m.cfg.spawnFeedback && m.feedback[d.img()].disabled) {
        ++m.res.spawnsSkippedFeedback;
        return;
    }
    TraceIdx j = m.index->nextOccurrence(hint->targetPc, i);
    if (j == invalidTrace || j >= t.end)
        return;
    std::uint32_t dist = j - i;
    if (dist < m.cfg.minSpawnDistance ||
        dist > m.cfg.maxSpawnDistance) {
        ++m.res.spawnsSkippedDistance;
        return;
    }

    // Truncate the parent immediately (its fetch must stop at the
    // new boundary this cycle); the context allocation is applied
    // after fetch finishes so task positions stay stable during
    // the fetch loop.
    m.pending.valid = true;
    m.pending.parentPos = pos;
    m.pending.start = j;
    m.pending.end = t.end;
    m.pending.hint = *hint;
    m.pending.triggerPc = li.addr;
    m.pending.triggerImg = d.img();
    m.pending.ghr = t.ghr;
    m.pending.ras = t.ras;
    t.end = j;
}

} // namespace

void
applySpawn(MachineState &m)
{
    if (!m.pending.valid)
        return;
    m.pending.valid = false;
    // The parent is still at parentPos: nothing inserts or retires
    // a task between fetch's spawn decision and this call.
    Task nt;
    nt.begin = m.pending.start;
    nt.end = m.pending.end;
    nt.fetchIdx = nt.dispIdx = nt.begin;
    nt.fetchReady = m.now + m.cfg.spawnStartupDelay;
    nt.lastFetchStall = FetchStall::SpawnStartup;
    nt.ghr = m.pending.ghr;
    nt.ras = m.pending.ras;
    nt.triggerPc = m.pending.triggerPc;
    nt.triggerImg = m.pending.triggerImg;
    nt.depMask = m.pending.hint.depMask;
    if (m.events) {
        m.events->push_back({TaskEvent::Kind::Spawn, m.now, nt.begin,
                             nt.end, nt.triggerPc, m.commitIdx, 0});
    }
    m.tasks.insert(m.tasks.begin() + m.pending.parentPos + 1,
                   std::move(nt));
    ++m.res.spawns;
    ++m.res.spawnsByKind[static_cast<int>(m.pending.hint.kind)];
    ++m.feedback[m.pending.triggerImg].spawns;
}

void
fetch(MachineState &m)
{
    // Eligible tasks, scheduled by biased ICount: fewest in-flight
    // instructions first, biased toward older tasks.
    std::vector<size_t> &eligible = m.eligible;
    eligible.clear();
    for (size_t pos = 0; pos < m.tasks.size(); ++pos) {
        Task &t = m.tasks[pos];
        if (t.fetchIdx >= t.end || t.fetchReady > m.now ||
            t.blockedOnBranch != invalidTrace)
            continue;
        if (static_cast<int>(t.fetchIdx - t.dispIdx) >=
            m.cfg.fetchQueueEntries)
            continue;
        eligible.push_back(pos);
    }
    std::sort(eligible.begin(), eligible.end(),
              [&](size_t a, size_t b) {
                  // ICount over front-end occupancy (fetched but
                  // not yet renamed), biased toward older tasks.
                  auto key = [&](size_t p) {
                      const Task &tk = m.tasks[p];
                      return static_cast<long long>(tk.fetchIdx -
                                                    tk.dispIdx) +
                          ageBias * static_cast<long long>(p);
                  };
                  long long ka = key(a), kb = key(b);
                  return ka != kb ? ka < kb : a < b;
              });

    int totalBudget = m.cfg.pipelineWidth;
    int tasksFetched = 0;
    for (size_t pos : eligible) {
        if (tasksFetched >= m.cfg.fetchTasksPerCycle ||
            totalBudget <= 0)
            break;
        ++tasksFetched;
        Task &t = m.tasks[pos];
        int taken = 0;
        while (totalBudget > 0 && t.fetchIdx < t.end &&
               t.fetchReady <= m.now &&
               t.blockedOnBranch == invalidTrace &&
               static_cast<int>(t.fetchIdx - t.dispIdx) <
                   m.cfg.fetchQueueEntries) {
            TraceIdx i = t.fetchIdx;
            const LinkedInstr &li = m.staticOf(i);
            const DynInstr &d = m.trace->instrs[i];

            // Instruction cache.
            const Addr line = m.fetchLine[d.img()];
            if (line != t.curFetchLine) {
                int lat = m.hier.accessInstr(li.addr);
                t.curFetchLine = line;
                if (lat > 1) {
                    t.fetchReady = m.now + lat;
                    t.lastFetchStall = FetchStall::ICache;
                    break;
                }
            }

            m.istate[i].stage = InstrStage::Fetched;
            m.istate[i].fetchCycle =
                static_cast<std::uint32_t>(m.now);
            ++t.fetchIdx;
            --totalBudget;

            const Instruction &in = li.instr;
            bool mispredict = false;
            if (in.isCondBranch()) {
                ++m.res.condBranches;
                bool pred = m.gshare.predict(li.addr, t.ghr);
                m.gshare.update(li.addr, t.ghr, d.taken());
                t.ghr = m.gshare.shiftHistory(t.ghr, d.taken());
                if (pred != d.taken()) {
                    ++m.res.branchMispredicts;
                    mispredict = true;
                }
            } else if (in.isCall()) {
                t.ras.push(li.addr + instrBytes);
                if (in.op == Opcode::JALR) {
                    Addr p = m.indirect.predict(li.addr);
                    Addr target = m.trace->effAddr(d);
                    m.indirect.update(li.addr, target);
                    if (p != target) {
                        ++m.res.indirectMispredicts;
                        mispredict = true;
                    }
                }
            } else if (in.isReturn()) {
                Addr p = t.ras.pop();
                if (p != m.trace->effAddr(d)) {
                    ++m.res.returnMispredicts;
                    mispredict = true;
                }
            } else if (in.isIndirectJump()) {
                Addr p = m.indirect.predict(li.addr);
                Addr target = m.trace->effAddr(d);
                m.indirect.update(li.addr, target);
                if (p != target) {
                    ++m.res.indirectMispredicts;
                    mispredict = true;
                }
            }

            maybeSpawn(m, pos, i, li);

            if (mispredict) {
                t.blockedOnBranch = i;
                // Wrong-path fetch past this branch would have
                // spawned bogus tasks; hold a context hostage until
                // the branch resolves (squash of the ghost task).
                if (m.source && m.cfg.wrongPathGhosts &&
                    static_cast<int>(m.tasks.size() +
                                     m.ghosts.size()) <
                        m.cfg.numTasks) {
                    m.ghosts.push_back(
                        m.now + m.cfg.minMispredictPenalty);
                }
                break;
            }
            if (d.taken()) {
                t.curFetchLine = invalidAddr;  // fetch redirect
                if (++taken >= m.cfg.maxTakenPerTaskCycle)
                    break;
            }
        }
    }
}

} // namespace polyflow::sim
