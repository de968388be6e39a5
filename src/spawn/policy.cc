#include "spawn/policy.hh"

#include <algorithm>

namespace polyflow {

SpawnPolicy
SpawnPolicy::none()
{
    return {"superscalar", 0};
}

SpawnPolicy
SpawnPolicy::loop()
{
    return {"loop", kinds::loopIter};
}

SpawnPolicy
SpawnPolicy::loopFT()
{
    return {"loopFT", kinds::loopFT};
}

SpawnPolicy
SpawnPolicy::procFT()
{
    return {"procFT", kinds::procFT};
}

SpawnPolicy
SpawnPolicy::hammock()
{
    return {"hammock", kinds::hammock};
}

SpawnPolicy
SpawnPolicy::other()
{
    return {"other", kinds::other};
}

SpawnPolicy
SpawnPolicy::postdoms()
{
    return {"postdoms", kinds::postdoms};
}

SpawnPolicy
SpawnPolicy::loopPlusLoopFT()
{
    return {"loop+loopFT", kinds::loopIter | kinds::loopFT};
}

SpawnPolicy
SpawnPolicy::loopFTPlusProcFT()
{
    return {"loopFT+procFT", kinds::loopFT | kinds::procFT};
}

SpawnPolicy
SpawnPolicy::loopProcFTLoopFT()
{
    return {"loop+procFT+loopFT",
            kinds::loopIter | kinds::procFT | kinds::loopFT};
}

SpawnPolicy
SpawnPolicy::postdomsMinus(SpawnKind k)
{
    return {std::string("postdoms-") + spawnKindName(k),
            kinds::postdoms & ~kindBit(k)};
}

HintTable::HintTable(const SpawnAnalysis &analysis,
                     const SpawnPolicy &policy)
{
    for (const SpawnPoint &p : analysis.points()) {
        if (!(policy.kindMask & kindBit(p.kind)))
            continue;
        // Only a loop header's start carries two points (one
        // LoopIter per header): the postdominator point wins.
        auto [it, fresh] = _byTrigger.try_emplace(p.triggerPc, p);
        if (!fresh && it->second.kind == SpawnKind::LoopIter)
            it->second = p;
    }
}

HintTable::HintTable(const std::vector<SpawnPoint> &points)
{
    for (const SpawnPoint &p : points)
        _byTrigger[p.triggerPc] = p;
}

std::vector<SpawnPoint>
HintTable::points() const
{
    std::vector<SpawnPoint> out;
    out.reserve(_byTrigger.size());
    for (const auto &[pc, p] : _byTrigger)
        out.push_back(p);
    std::sort(out.begin(), out.end(),
              [](const SpawnPoint &a, const SpawnPoint &b) {
                  return a.triggerPc < b.triggerPc;
              });
    return out;
}

const SpawnPoint *
HintTable::lookup(Addr pc) const
{
    auto it = _byTrigger.find(pc);
    return it == _byTrigger.end() ? nullptr : &it->second;
}

} // namespace polyflow
