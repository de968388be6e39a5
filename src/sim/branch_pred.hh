/**
 * @file
 * Front-end predictors: the gshare direction predictor, a last-target
 * indirect-jump predictor, and a per-task return address stack.
 */

#ifndef POLYFLOW_SIM_BRANCH_PRED_HH
#define POLYFLOW_SIM_BRANCH_PRED_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/types.hh"
#include "sim/config.hh"

namespace polyflow {

/**
 * Gshare direction predictor: gshareCounters 2-bit saturating
 * counters indexed by PC xor historyBits of global history. History
 * is kept per task (tasks are independent fetch streams); the counter
 * table is shared.
 */
class GsharePredictor
{
  public:
    bool predict(Addr pc, std::uint32_t history) const;
    void update(Addr pc, std::uint32_t history, bool taken);

    /** Fold @p taken into a task's history register. */
    static std::uint32_t
    shiftHistory(std::uint32_t history, bool taken)
    {
        return ((history << 1) | (taken ? 1 : 0)) & historyMask;
    }

  private:
    static constexpr std::uint32_t indexMask = gshareCounters - 1;
    static constexpr std::uint32_t historyMask = (1u << historyBits) - 1;

    static std::uint32_t index(Addr pc, std::uint32_t history);

    std::vector<std::uint8_t> _counters =
        std::vector<std::uint8_t>(gshareCounters, 2);  // weakly taken
};

/** Last-target predictor for indirect jumps and indirect calls. */
class IndirectPredictor
{
  public:
    /** Predicted target for the jump at @p pc (invalidAddr if cold). */
    Addr predict(Addr pc) const;
    void update(Addr pc, Addr target);

  private:
    std::unordered_map<Addr, Addr> _lastTarget;
};

/** A bounded return-address stack; copied into newly spawned tasks. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(int capacity = 16)
        : _capacity(capacity)
    {}

    void push(Addr returnAddr);
    /** Pop the predicted return target (invalidAddr when empty). */
    Addr pop();

  private:
    int _capacity;
    std::vector<Addr> _stack;
};

} // namespace polyflow

#endif // POLYFLOW_SIM_BRANCH_PRED_HH
