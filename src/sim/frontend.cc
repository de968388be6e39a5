#include "sim/stages.hh"

#include <algorithm>

namespace polyflow::sim {

namespace {

/** Biased-ICount: tie-bias toward older tasks. Kept small so the
 *  tail task still fetches often enough to keep spawning. */
constexpr long long ageBias = 1;

static_assert(maxTakenPerTaskCycle == 1,
              "fetch ends a task's cycle at its first taken branch");

/** The Task Spawn Unit's look at fetched instruction @p i, decoded
 *  as @p f, of the task at position @p pos, which may spawn. */
void
maybeSpawn(MachineState &m, size_t pos, TraceIdx i, const FetchOp &f)
{
    if (m.pending.valid)
        return;  // one spawn-unit port per cycle
    std::erase_if(m.ghosts,
                  [&](std::uint64_t e) { return e <= m.now; });
    if (static_cast<int>(m.tasks.size() + m.ghosts.size()) >=
        m.cfg.numTasks) {
        ++m.res.spawnsSkippedNoContext;
        return;
    }
    std::optional<SpawnHint> asked;
    switch (f.spawn) {
      case SpawnAt::None:
        return;
      case SpawnAt::Fixed:
        break;
      case SpawnAt::Ask:
        asked = m.source->query(m.staticOf(i));
        if (!asked)
            return;
        break;
    }
    const SpawnHint &hint = asked ? *asked : f.hint;
    const ImageIdx img = m.trace->instrs[i].img();
    if (m.cfg.spawnFeedback && m.feedback[img].disabled) {
        ++m.res.spawnsSkippedFeedback;
        return;
    }
    Task &t = m.tasks[pos];
    TraceIdx j = m.index->nextOccurrence(hint.targetPc, i);
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
    m.pending = {.valid = true, .parentPos = pos, .kind = hint.kind,
                 .task = {.begin = j, .end = t.end,
                          .fetchIdx = j, .dispIdx = j,
                          .fetchReady = m.now + spawnStartupDelay,
                          .lastFetchStall = FetchStall::SpawnStartup,
                          .ghr = t.ghr, .ras = t.ras,
                          .triggerPc = f.pc, .triggerImg = img,
                          .depMask = hint.depMask}};
    t.end = j;
}

} // namespace

void
applySpawn(MachineState &m)
{
    if (!m.pending.valid)
        return;
    m.pending.valid = false;
    const Task &nt = m.pending.task;
    if (m.events) {
        m.events->push_back({TaskEvent::Kind::Spawn, m.now, nt.begin,
                             nt.end, nt.triggerPc, m.commitIdx, 0});
    }
    ++m.res.spawns;
    ++m.res.spawnsByKind[static_cast<int>(m.pending.kind)];
    ++m.feedback[nt.triggerImg].spawns;
    // The parent is still at parentPos: nothing inserts or retires
    // a task between fetch's spawn decision and this call.
    m.tasks.insert(m.tasks.begin() + m.pending.parentPos + 1,
                   std::move(m.pending.task));
}

void
fetch(MachineState &m)
{
    // Eligible tasks, scheduled by biased ICount: fewest in-flight
    // instructions first, biased toward older tasks. Each task's key
    // is computed once and inserted in order; equal keys keep the
    // older task first.
    std::vector<FetchCandidate> &eligible = m.eligible;
    eligible.clear();
    for (size_t pos = 0; pos < m.tasks.size(); ++pos) {
        Task &t = m.tasks[pos];
        if (const TraceIdx b = t.blockedOnBranch;
            b != invalidTrace && m.doneAt(b, m.now)) {
            // The mispredicted branch resolved this cycle (the walk
            // visits every task every cycle). Fetch resumes after
            // the mispredict penalty, charged to that stall.
            t.fetchReady =
                std::max({t.fetchReady, t.redirectFloor,
                          std::uint64_t(m.istate[b].cycle) + 1});
            t.blockedOnBranch = invalidTrace;
            t.lastFetchStall = FetchStall::Mispredict;
            t.curFetchLine = invalidAddr;  // redirected fetch
        }
        if (!m.canFetch(t))
            continue;
        // ICount over front-end occupancy (fetched but not yet
        // renamed), biased toward older tasks.
        const long long key =
            static_cast<long long>(t.fetchIdx - t.dispIdx) +
            ageBias * static_cast<long long>(pos);
        eligible.insert(
            std::upper_bound(eligible.begin(), eligible.end(), key,
                             [](long long k, const FetchCandidate &c) {
                                 return k < c.key;
                             }),
            {key, pos});
    }

    int totalBudget = m.cfg.pipelineWidth;
    int tasksFetched = 0;
    for (const FetchCandidate &c : eligible) {
        if (tasksFetched >= m.cfg.fetchTasksPerCycle ||
            totalBudget <= 0)
            break;
        const size_t pos = c.pos;
        ++tasksFetched;
        Task &t = m.tasks[pos];
        // Only the tail task may spawn (paper baseline), unless the
        // config lets any task. Fetch inserts no task, so the tail
        // stays the tail for the whole loop.
        const bool maySpawn = m.source &&
            (m.cfg.spawnFromAnyTask || pos + 1 == m.tasks.size());
        while (totalBudget > 0 && m.canFetch(t)) {
            TraceIdx i = t.fetchIdx;
            const DynInstr &d = m.trace->instrs[i];
            const FetchOp &f = m.fetchOps[d.img()];

            // Instruction cache.
            if (f.line != t.curFetchLine) {
                int lat = m.hier.accessInstr(f.pc);
                t.curFetchLine = f.line;
                if (lat > 1) {
                    t.fetchReady = m.now + lat;
                    t.lastFetchStall = FetchStall::ICache;
                    break;
                }
            }

            m.istate[i] = {InstrStage::Fetched,
                           static_cast<std::uint32_t>(m.now)};
            ++t.fetchIdx;
            --totalBudget;

            bool mispredict = false;
            auto predictIndirect = [&] {
                Addr p = m.indirect.predict(f.pc);
                Addr target = m.trace->effAddr(i);
                m.indirect.update(f.pc, target);
                if (p != target) {
                    ++m.res.indirectMispredicts;
                    mispredict = true;
                }
            };
            switch (f.cls) {
              case OpClass::CondBranch: {
                ++m.res.condBranches;
                bool pred = m.gshare.predict(f.pc, t.ghr);
                m.gshare.update(f.pc, t.ghr, d.taken());
                t.ghr = m.gshare.shiftHistory(t.ghr, d.taken());
                if (pred != d.taken()) {
                    ++m.res.branchMispredicts;
                    mispredict = true;
                }
                break;
              }
              case OpClass::Call:
                t.ras.push(f.pc + instrBytes);
                break;
              case OpClass::IndirectCall:
                t.ras.push(f.pc + instrBytes);
                predictIndirect();
                break;
              case OpClass::Return:
                if (t.ras.pop() != m.trace->effAddr(i)) {
                    ++m.res.returnMispredicts;
                    mispredict = true;
                }
                break;
              case OpClass::IndirectJump:
                predictIndirect();
                break;
              default:
                break;
            }

            if (maySpawn)
                maybeSpawn(m, pos, i, f);

            if (mispredict) {
                t.blockedOnBranch = i;
                t.redirectFloor = m.now + minMispredictPenalty;
                // Wrong-path fetch past this branch would have
                // spawned bogus tasks; hold a context hostage until
                // the branch resolves (squash of the ghost task).
                if (m.source && m.cfg.wrongPathGhosts &&
                    static_cast<int>(m.tasks.size() +
                                     m.ghosts.size()) <
                        m.cfg.numTasks) {
                    m.ghosts.push_back(m.now + minMispredictPenalty);
                }
                break;
            }
            if (d.taken()) {
                t.curFetchLine = invalidAddr;  // fetch redirect
                break;  // maxTakenPerTaskCycle
            }
        }
    }
}

} // namespace polyflow::sim
