#include "recon/recon_predictor.hh"

#include <algorithm>

namespace polyflow {

namespace {

/** Max branch instances observed simultaneously. */
constexpr int maxActive = 8;
/** Retired instructions an instance may span before abort. */
constexpr int windowInstrs = 512;
/** Candidate slots per static branch. */
constexpr int numCandidates = 4;
/** Votes needed before a candidate is predicted. */
constexpr int confidenceThreshold = 2;

} // namespace

ReconPredictor::ReconPredictor()
{
    _active.reserve(maxActive);
}

void
ReconPredictor::observeCommit(Addr pc, bool isCondBranch, bool taken,
                              bool blockStart)
{
    // 1. Feed active instances. An instance closes when its own
    // branch commits again (the observation then covers exactly one
    // dynamic occurrence, so loop iterations don't smear together),
    // when the suffix is full, or when the window runs out.
    for (size_t i = 0; i < _active.size();) {
        ActiveInstance &inst = _active[i];
        bool recurrence = isCondBranch && pc == inst.branchPc;
        if (!recurrence && blockStart && inst.count < suffixLength)
            inst.collected[inst.count++] = pc;
        --inst.instrsLeft;
        bool full = inst.count >= suffixLength;
        if (recurrence || full || inst.instrsLeft <= 0) {
            if (inst.count > 0) {
                finishInstance(inst);
                ++_instancesCompleted;
            } else {
                ++_instancesAborted;
            }
            _active.erase(_active.begin() + i);
        } else {
            ++i;
        }
    }

    // 2. Open a new instance for this branch.
    if (isCondBranch) {
        if (static_cast<int>(_active.size()) >= maxActive) {
            // Hardware table full: retire the oldest observation
            // with whatever suffix it has collected so far (dense
            // branch streams would otherwise never finish one).
            if (_active.front().count > 0) {
                finishInstance(_active.front());
                ++_instancesCompleted;
            } else {
                ++_instancesAborted;
            }
            _active.erase(_active.begin());
        }
        _active.push_back({pc, taken, windowInstrs});
    }
}

void
ReconPredictor::finishInstance(const ActiveInstance &inst)
{
    Entry &e = _entries[inst.branchPc];
    int dir = inst.taken ? 1 : 0;
    e.suffix[dir].assign(inst.collected.begin(),
                         inst.collected.begin() + inst.count);
    e.haveSuffix[dir] = true;

    if (!e.haveSuffix[0] || !e.haveSuffix[1])
        return;  // warm-up: need both outcomes before a candidate

    // Reconvergence candidate: the first block-start PC in the
    // taken suffix that also appears in the not-taken suffix and
    // lies below the branch in the layout — the original
    // predictor's most important category, which covers forward
    // if/if-else joins and backward loop branches' fall-throughs.
    for (Addr p : e.suffix[1]) {
        if (p <= inst.branchPc)
            continue;
        if (std::find(e.suffix[0].begin(), e.suffix[0].end(), p) !=
            e.suffix[0].end()) {
            vote(e, p);
            return;
        }
    }
}

void
ReconPredictor::vote(Entry &e, Addr candidate)
{
    for (Candidate &c : e.cands) {
        if (c.pc == candidate) {
            ++c.votes;
            return;
        }
    }
    if (static_cast<int>(e.cands.size()) < numCandidates) {
        e.cands.push_back({candidate, 1});
        return;
    }
    // Table full: decay and replace the weakest entry.
    auto weakest = std::min_element(
        e.cands.begin(), e.cands.end(),
        [](const Candidate &a, const Candidate &b) {
            return a.votes < b.votes;
        });
    if (--weakest->votes <= 0)
        *weakest = {candidate, 1};
}

Addr
ReconPredictor::predict(Addr branchPc) const
{
    auto it = _entries.find(branchPc);
    if (it == _entries.end())
        return invalidAddr;
    const Entry &e = it->second;
    const Candidate *best = nullptr;
    for (const Candidate &c : e.cands) {
        if (!best || c.votes > best->votes)
            best = &c;
    }
    if (!best || best->votes < confidenceThreshold)
        return invalidAddr;
    return best->pc;
}

std::vector<std::pair<Addr, Addr>>
ReconPredictor::confidentPredictions() const
{
    std::vector<std::pair<Addr, Addr>> out;
    for (const auto &[pc, e] : _entries) {
        Addr p = predict(pc);
        if (p != invalidAddr)
            out.emplace_back(pc, p);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace polyflow
