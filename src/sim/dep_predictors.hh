/**
 * @file
 * The rename-stage data dependence predictors of the PolyFlow
 * pipeline (Figure 7): learn-on-violation, PC-indexed predictors
 * that decide which consumers synchronize through the divert queue
 * instead of re-speculating.
 *
 *  - The *register* predictor marks a consumer instruction that once
 *    read a stale value produced by an older in-flight task.
 *  - The *memory* predictor (store-set style, in the spirit of the
 *    Synchronizing Store Sets used by PolyFlow) marks a load that
 *    once violated against an older task's store.
 *
 * Both are queried for every instruction at rename, and again at
 * issue and divert release, so the backing is a flat per-static
 * -instruction table indexed by image index (each image slot is one
 * PC, so image-indexing is exactly PC-indexing without the hash).
 */

#ifndef POLYFLOW_SIM_DEP_PREDICTORS_HH
#define POLYFLOW_SIM_DEP_PREDICTORS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/types.hh"

namespace polyflow {

class DepPredictors
{
  public:
    /** @param imageSize static instruction count of the program. */
    explicit DepPredictors(size_t imageSize)
        : _bits(imageSize, 0)
    {}

    /** Consumer at image slot @p i is predicted to read a value an
     *  older task produces; synchronize it. */
    bool
    predictsRegDep(ImageIdx i) const
    {
        return _bits[i] & RegDep;
    }

    /** Load at image slot @p i is predicted to conflict with an
     *  older task's store; synchronize it. */
    bool
    predictsMemDep(ImageIdx i) const
    {
        return _bits[i] & MemDep;
    }

    /** Learn from a stale register read by the consumer at @p i. */
    void
    recordRegViolation(ImageIdx i)
    {
        _bits[i] |= RegDep;
    }

    /** Learn from a memory-order violation by the load at @p i. */
    void
    recordMemViolation(ImageIdx i)
    {
        _bits[i] |= MemDep;
    }

  private:
    enum : std::uint8_t { RegDep = 1, MemDep = 2 };
    std::vector<std::uint8_t> _bits;
};

} // namespace polyflow

#endif // POLYFLOW_SIM_DEP_PREDICTORS_HH
