#include "driver/grid.hh"

namespace polyflow::driver {

namespace {

/** A run per policy, labelled with the policy's name. */
std::vector<RunSpec>
staticRuns(const std::vector<SpawnPolicy> &policies)
{
    std::vector<RunSpec> runs;
    for (const SpawnPolicy &p : policies)
        runs.push_back({p.name, SourceSpec::statics(p)});
    return runs;
}

/** Postdoms with @p knob of the default config set to each of
 *  @p values, labelled <prefix><value>. */
template <typename T>
RunSection
knobSection(std::string title, const std::string &prefix,
            T MachineConfig::*knob, const std::vector<T> &values)
{
    RunSection s{std::move(title), {}};
    for (T v : values) {
        s.runs.push_back({prefix + std::to_string(v),
                          SourceSpec::statics(SpawnPolicy::postdoms())});
        s.runs.back().config.*knob = v;
    }
    return s;
}

RunTable
makeRunTable()
{
    using P = SpawnPolicy;
    const SourceSpec postdoms = SourceSpec::statics(P::postdoms());
    RunTable t;
    t.superscalar = {"superscalar", SourceSpec::baseline(),
                     MachineConfig::superscalar()};
    t.individual = staticRuns({P::loop(), P::loopFT(), P::procFT(),
                               P::hammock(), P::other(), P::postdoms()});
    t.combined = staticRuns({P::loopPlusLoopFT(), P::loopFTPlusProcFT(),
                             P::loopProcFTLoopFT()});
    t.exclusions = staticRuns({P::postdomsMinus(SpawnKind::LoopFT),
                               P::postdomsMinus(SpawnKind::ProcFT),
                               P::postdomsMinus(SpawnKind::Hammock),
                               P::postdomsMinus(SpawnKind::Other)});
    t.dynamics = {{"rec_pred", SourceSpec::recon()},
                  {"dmt", SourceSpec::dmt()}};
    t.ablationWorkloads = {"twolf", "mcf"};
    t.ablation = {
        knobSection("task contexts", "tasks=", &MachineConfig::numTasks,
                    {1, 2, 4, 8, 16}),
        knobSection("divert queue entries", "divert=",
                    &MachineConfig::divertEntries,
                    {16, 32, 64, 128, 256, 512}),
        knobSection("reorder buffer entries", "rob=",
                    &MachineConfig::robEntries, {128, 256, 512, 1024}),
        knobSection("max spawn distance", "maxDist=",
                    &MachineConfig::maxSpawnDistance,
                    {64, 128, 256, 512, 2048, 8192}),
        {"spawn-unit mechanisms",
         {{"feedback+ghosts", postdoms},
          {"no feedback", postdoms, {.spawnFeedback = false}},
          {"no wrong-path ghosts", postdoms, {.wrongPathGhosts = false}},
          {"neither", postdoms,
           {.spawnFeedback = false, .wrongPathGhosts = false}}}},
        // Paper Section 6 future work: spawn from any task, not just
        // the tail (nested hammocks can then spawn past their inner
        // branch).
        {"spawn source task (Section 6 extension)",
         {{"tail-only (paper)", postdoms},
          {"spawn-from-any-task", postdoms, {.spawnFromAnyTask = true}}}}};
    return t;
}

} // namespace

const RunTable &
runTable()
{
    static const RunTable table = makeRunTable();
    return table;
}

std::vector<RunSpec>
figureRuns()
{
    const RunTable &t = runTable();
    std::vector<RunSpec> runs = {t.superscalar};
    for (const auto *family :
         {&t.individual, &t.combined, &t.exclusions, &t.dynamics})
        runs.insert(runs.end(), family->begin(), family->end());
    return runs;
}

const std::vector<RunSpec> &
allRuns()
{
    static const std::vector<RunSpec> runs = [] {
        std::vector<RunSpec> all = figureRuns();
        for (const RunSection &s : runTable().ablation)
            all.insert(all.end(), s.runs.begin(), s.runs.end());
        return all;
    }();
    return runs;
}

std::optional<RunSpec>
runByLabel(const std::string &label)
{
    for (const RunSpec &r : allRuns()) {
        if (r.label == label)
            return r;
    }
    return std::nullopt;
}

std::vector<std::string>
labelsOf(const std::vector<RunSpec> &runs)
{
    std::vector<std::string> labels;
    for (const RunSpec &r : runs)
        labels.push_back(r.label);
    return labels;
}

size_t
Grid::add(const std::string &workload, double scale, const RunSpec &run)
{
    const size_t i = find(workload, scale, run).value_or(_cells.size());
    if (i == _cells.size())
        _cells.push_back({workload, scale, run.source, run.config,
                          run.label});
    _byLabel.try_emplace({workload, run.label}, i);
    return i;
}

std::optional<size_t>
Grid::find(const std::string &workload, double scale,
           const RunSpec &run) const
{
    for (size_t i = 0; i < _cells.size(); ++i) {
        const SweepCell &c = _cells[i];
        if (c.workload == workload && c.scale == scale &&
            c.source == run.source && c.config == run.config)
            return i;
    }
    return std::nullopt;
}

size_t
Grid::cell(const std::string &workload, const std::string &label) const
{
    return _byLabel.at({workload, label});
}

void
Grid::run(SweepRunner &runner, bool report)
{
    _results = runner.run(_cells, report);
}

std::vector<double>
Grid::speedups(const std::string &workload,
               const std::vector<std::string> &labels) const
{
    const TimingResult &base =
        at(workload, runTable().superscalar.label).sim;
    std::vector<double> out;
    for (const std::string &label : labels)
        out.push_back(at(workload, label).sim.speedupOver(base));
    return out;
}

stats::RunRecord
Grid::record(size_t i, const std::string &label) const
{
    stats::RunRecord r{_cells[i].workload, _cells[i].scale, label,
                       _results.at(i).sim};
    r.sim.policyName = label;
    return r;
}

Grid
figuresGrid(double scale)
{
    const RunTable &t = runTable();
    Grid g;
    for (const std::string &name : allWorkloadNames()) {
        for (const RunSpec &run : figureRuns())
            g.add(name, scale, run);
    }
    for (const std::string &name : t.ablationWorkloads) {
        g.add(name, ablationScale(scale), t.superscalar);
        for (const RunSection &s : t.ablation) {
            for (const RunSpec &row : s.runs)
                g.add(name, ablationScale(scale), row);
        }
    }
    return g;
}

} // namespace polyflow::driver
