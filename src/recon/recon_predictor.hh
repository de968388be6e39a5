/**
 * @file
 * Dynamic reconvergence predictor, in the spirit of Collins, Tullsen
 * and Wang (MICRO-37): a run-time structure trained on the retirement
 * stream that predicts, for each static branch, the PC where control
 * flow reconverges — an approximation of the branch block's immediate
 * postdominator.
 *
 * Implementation note (documented in DESIGN.md): instead of the
 * original four fixed layout categories, this predictor trains by
 * intersecting the block-start PCs retired after taken and after
 * not-taken instances of each branch — the first PC common to both
 * suffixes is the reconvergence candidate. This is at least as
 * aggressive as the original's best category (reconvergence below the
 * branch PC) while retaining its hardware-like limits: a bounded
 * table of in-flight observations, a bounded suffix window, voting
 * among a small number of candidates, and genuine warm-up effects
 * (no prediction until both outcomes have been observed).
 */

#ifndef POLYFLOW_RECON_RECON_PREDICTOR_HH
#define POLYFLOW_RECON_RECON_PREDICTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/types.hh"

namespace polyflow {

/**
 * The predictor. Call observeCommit() for every committed
 * instruction in order; call predict() at any time (typically at
 * fetch of a branch).
 */
class ReconPredictor
{
  public:
    ReconPredictor();

    /**
     * Feed one committed instruction.
     *
     * @param pc the instruction's address
     * @param isCondBranch true for conditional branches
     * @param taken branch outcome (ignored otherwise)
     * @param blockStart true if the instruction starts a basic block
     */
    void observeCommit(Addr pc, bool isCondBranch, bool taken,
                       bool blockStart);

    /**
     * Predicted reconvergence PC for the branch at @p pc, or
     * invalidAddr when the predictor has no confident candidate yet.
     */
    Addr predict(Addr branchPc) const;

    /** @name Introspection / statistics @{ */
    size_t numTrackedBranches() const { return _entries.size(); }
    std::uint64_t instancesCompleted() const
    {
        return _instancesCompleted;
    }
    std::uint64_t instancesAborted() const { return _instancesAborted; }
    /** All branches with a confident prediction. */
    std::vector<std::pair<Addr, Addr>> confidentPredictions() const;
    /** @} */

  private:
    /** Block-start PCs collected per instance. */
    static constexpr int suffixLength = 24;

    struct Candidate
    {
        Addr pc = invalidAddr;
        int votes = 0;
    };

    struct Entry
    {
        std::vector<Candidate> cands;
        /** Most recent post-branch block-start suffix per outcome. */
        std::vector<Addr> suffix[2];
        bool haveSuffix[2] = {false, false};
    };

    /** One branch instance under observation. Its suffix is a fixed
     *  array, so opening an instance allocates nothing. */
    struct ActiveInstance
    {
        Addr branchPc;
        bool taken;
        int instrsLeft;
        int count = 0;  //!< collected[0 .. count) are filled
        std::array<Addr, suffixLength> collected{};
    };

    void finishInstance(const ActiveInstance &inst);
    void vote(Entry &e, Addr candidate);

    std::unordered_map<Addr, Entry> _entries;
    std::vector<ActiveInstance> _active;
    std::uint64_t _instancesCompleted = 0;
    std::uint64_t _instancesAborted = 0;
};

} // namespace polyflow

#endif // POLYFLOW_RECON_RECON_PREDICTOR_HH
