/**
 * @file
 * ScopedNs: wall-clock accumulation for the cycle loop's opt-in
 * stage profiling (core.cc). Internal to src/sim.
 */

#ifndef POLYFLOW_SIM_STAGE_TIMER_HH
#define POLYFLOW_SIM_STAGE_TIMER_HH

#include <chrono>
#include <cstdint>

namespace polyflow::sim {

/** Accumulates the scope's wall time into *slot when non-null. */
class ScopedNs
{
  public:
    explicit ScopedNs(std::uint64_t *slot) : _slot(slot)
    {
        if (_slot)
            _t0 = std::chrono::steady_clock::now();
    }
    ~ScopedNs()
    {
        if (_slot) {
            *_slot += std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - _t0)
                    .count());
        }
    }
    ScopedNs(const ScopedNs &) = delete;
    ScopedNs &operator=(const ScopedNs &) = delete;

  private:
    std::uint64_t *_slot;
    std::chrono::steady_clock::time_point _t0;
};

} // namespace polyflow::sim

#endif // POLYFLOW_SIM_STAGE_TIMER_HH
