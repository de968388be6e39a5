#include "sim/spawn_source.hh"

namespace polyflow {

std::optional<SpawnHint>
StaticSpawnSource::query(const LinkedInstr &li)
{
    const SpawnPoint *p = _table->lookup(li.addr);
    if (!p)
        return std::nullopt;
    return SpawnHint{p->targetPc, p->kind, p->depMask};
}

std::optional<SpawnHint>
ReconSpawnSource::query(const LinkedInstr &li)
{
    if (li.instr.isCall()) {
        return SpawnHint{li.addr + instrBytes, SpawnKind::ProcFT};
    }
    if (li.instr.isCondBranch()) {
        Addr target = _predictor.predict(li.addr);
        if (target != invalidAddr)
            return SpawnHint{target, SpawnKind::Other};
    }
    return std::nullopt;
}

bool
ReconSpawnSource::fixedAt(const LinkedInstr &li) const
{
    return !li.instr.isCondBranch();
}

void
ReconSpawnSource::onCommit(const LinkedInstr &li, bool taken)
{
    _predictor.observeCommit(li.addr, li.instr.isCondBranch(), taken,
                             li.blockStart);
}

std::optional<SpawnHint>
DmtSpawnSource::query(const LinkedInstr &li)
{
    if (li.instr.isCall())
        return SpawnHint{li.addr + instrBytes, SpawnKind::ProcFT};
    if (li.instr.isCondBranch() && li.targetAddr != invalidAddr &&
        li.targetAddr < li.addr) {
        // Backward branch: the instruction after it approximates
        // the loop fall-through.
        return SpawnHint{li.addr + instrBytes, SpawnKind::LoopFT};
    }
    return std::nullopt;
}

} // namespace polyflow
