#include "driver/session.hh"

namespace polyflow {

Session::Session(std::string name, double scale,
                 std::shared_ptr<driver::SweepCache> cache)
    : _name(std::move(name)), _scale(scale), _cache(std::move(cache))
{}

Session
Session::open(const std::string &name, double scale)
{
    return open(name, scale, std::make_shared<driver::SweepCache>());
}

Session
Session::open(const std::string &name, double scale,
              std::shared_ptr<driver::SweepCache> cache)
{
    return Session(name, scale, std::move(cache));
}

Session
Session::adopt(Workload workload, double scale)
{
    auto cache = std::make_shared<driver::SweepCache>();
    std::string name = workload.name;
    cache->adopt(std::move(workload), scale);
    return Session(std::move(name), scale, std::move(cache));
}

const Workload &
Session::workload() const
{
    return *_cache->workload(_name, _scale);
}

const LinkedProgram &
Session::program() const
{
    return workload().prog;
}

const Module &
Session::module() const
{
    return *workload().module;
}

const Trace &
Session::trace() const
{
    return _cache->traced(_name, _scale)->trace;
}

const SpawnAnalysis &
Session::analysis() const
{
    return *_cache->analysis(_name, _scale);
}

std::shared_ptr<const HintTable>
Session::hints(const SpawnPolicy &policy) const
{
    return _cache->hints(_name, _scale, policy);
}

TimingResult
Session::simulate(const driver::RunSpec &run, const RunOptions &options)
{
    // Holds the trace (and the program it points into) for the run.
    const auto traced = _cache->traced(_name, _scale);
    // A fresh source per run: the dynamic sources train.
    std::shared_ptr<SpawnSource> src;
    switch (run.source.kind) {
      case driver::SourceSpec::Kind::Baseline:
        break;
      case driver::SourceSpec::Kind::Static:
        src = std::make_shared<StaticSpawnSource>(
            _cache->hints(_name, _scale, run.source.policy));
        break;
      case driver::SourceSpec::Kind::Recon:
        src = std::make_shared<ReconSpawnSource>();
        break;
      case driver::SourceSpec::Kind::Dmt:
        src = std::make_shared<DmtSpawnSource>();
        break;
    }
    const std::shared_ptr<const TraceIndex> index =
        src ? _cache->traceIndex(_name, _scale) : nullptr;
    TimingResult res = runTiming(run.config, traced->trace, src.get(),
                                 run.label, index.get(), options.events);
    if (options.sourceOut)
        *options.sourceOut = std::move(src);
    return res;
}

} // namespace polyflow
