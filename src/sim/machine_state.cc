#include "sim/machine_state.hh"

#include <limits>
#include <stdexcept>
#include <string>

namespace polyflow::sim {

namespace {

/** @p config, once it has passed MachineConfig::validate(). The
 *  check runs before any member is built from the config, so a bad
 *  cache geometry is reported by field name, not by the cache. */
const MachineConfig &
validated(const MachineConfig &config)
{
    config.validate();
    return config;
}

} // namespace

std::uint64_t
MachineState::cycleLimitFor(const MachineConfig &cfg,
                            std::size_t instrs)
{
    // The longest time from a cycle to a result it schedules: a load
    // that misses both cache levels, the slowest ALU class, or a
    // store's one cycle.
    const std::int64_t longest = std::max(
        {std::int64_t(1), std::int64_t(cfg.intLatency),
         std::int64_t(cfg.mulLatency), std::int64_t(cfg.divLatency),
         std::int64_t(cfg.loadLatency) + cfg.l1d.missLatency +
             cfg.l2.missLatency});
    constexpr std::uint64_t base = 1'000'000, perInstr = 200;
    constexpr std::uint64_t cycleMax =
        std::numeric_limits<std::uint32_t>::max();
    const std::uint64_t reach = base + std::uint64_t(longest);
    if (reach < cycleMax && instrs <= (cycleMax - reach) / perInstr)
        return perInstr * instrs + base;
    throw std::runtime_error(
        "TimingSim: a trace of " + std::to_string(instrs) +
        " instructions is too long: its cycle limit (200 per "
        "instruction + 1000000) plus a " + std::to_string(longest) +
        "-cycle latency does not fit in 32 bits");
}

MachineState::MachineState(const MachineConfig &config,
                           const Trace &trace_, SpawnSource *source_,
                           const TraceIndex *sharedIndex)
    : cfg(validated(config)), trace(&trace_), source(source_),
      cycleLimit(cycleLimitFor(config, trace_.size())), hier(config),
      gshare(config), depPred(trace_.prog ? trace_.prog->size() : 0)
{
    if (trace_.size() == 0)
        throw std::runtime_error("TimingSim: empty trace");
    istate.resize(trace_.size());

    if (source) {
        if (sharedIndex) {
            index = sharedIndex;
        } else {
            ownedIndex = std::make_unique<TraceIndex>(trace_);
            index = ownedIndex.get();
        }
        feedback.resize(trace_.prog->size());
    }

    Task t0;
    t0.begin = 0;
    t0.end = static_cast<TraceIdx>(trace_.size());
    t0.ras = ReturnAddressStack(config.returnStackEntries);
    // Reserve so that spawning inside the fetch stage never
    // reallocates while a Task reference is live.
    tasks.reserve(size_t(config.numTasks) + 1);
    tasks.push_back(std::move(t0));
}

} // namespace polyflow::sim
