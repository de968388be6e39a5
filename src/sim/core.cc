#include "sim/core.hh"

#include <stdexcept>

#include "sim/batch.hh"

namespace polyflow {

TimingSim::TimingSim(const MachineConfig &config, const Trace &trace,
                     SpawnSource *source,
                     const TraceIndex *sharedIndex)
    : _cfg(config), _trace(&trace), _source(source),
      _index(sharedIndex)
{
    if (trace.size() == 0)
        throw std::runtime_error("TimingSim: empty trace");
}

TimingResult
TimingSim::run(const std::string &policyName)
{
    if (_ran)
        throw std::runtime_error("TimingSim::run called twice");
    _ran = true;
    const BatchItem item{_trace, _source, _index, policyName,
                         _events};
    return runBatch(_cfg, std::span<const BatchItem>(&item, 1),
                    _profile)[0];
}

std::vector<TimingResult>
TimingSim::runBatch(const MachineConfig &config,
                    std::span<const BatchItem> items,
                    StageProfile *profile)
{
    sim::MachineBatch batch(config);
    for (const BatchItem &item : items) {
        batch.add(*item.trace, item.source, item.index, item.label,
                  item.events);
    }
    if (profile)
        batch.profileStages(profile);
    return batch.run();
}

TimingResult
runTiming(const MachineConfig &config, const Trace &trace,
          SpawnSource *source, const std::string &name,
          const TraceIndex *sharedIndex)
{
    TimingSim sim(config, trace, source, sharedIndex);
    return sim.run(name);
}

} // namespace polyflow
