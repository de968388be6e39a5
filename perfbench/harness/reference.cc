#include "reference.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "stats/export.hh"
#include "store/sha256.hh"

namespace pfbench {

std::string
cellDigest(const std::string &workload, double scale,
           const polyflow::TimingResult &r)
{
    polyflow::stats::RunRecord rec{workload, scale, r.policyName, r};
    return polyflow::store::sha256Hex(polyflow::stats::runToJson(rec));
}

std::filesystem::path
referencePath(const std::filesystem::path &dir, double scale)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "cells-scale%g.tsv", scale);
    return dir / buf;
}

std::optional<Reference>
Reference::load(const std::filesystem::path &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    Reference ref;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, label;
        Entry e;
        if (!(fields >> workload >> label >> e.cycles >> e.digest) ||
            e.digest.size() != 64)
            return std::nullopt;
        ref._cells[{workload, label}] = e;
    }
    return ref;
}

void
Reference::add(const std::string &workload, double scale,
               const polyflow::TimingResult &r)
{
    _cells[{workload, r.policyName}] = {r.cycles,
                                        cellDigest(workload, scale, r)};
}

void
Reference::write(const std::filesystem::path &path) const
{
    std::ofstream out(path);
    out << "# workload label cycles sha256(stats::runToJson)\n";
    for (const auto &[key, e] : _cells)
        out << key.first << '\t' << key.second << '\t' << e.cycles
            << '\t' << e.digest << '\n';
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

std::string
Reference::check(const std::string &workload, double scale,
                 const polyflow::TimingResult &r) const
{
    if (r.slotTotal() != r.cycles * r.issueWidth)
        return "sum(slots) != cycles x issueWidth";
    auto it = _cells.find({workload, r.policyName});
    if (it == _cells.end())
        return "no pinned reference";
    if (r.cycles != it->second.cycles)
        return "cycles " + std::to_string(r.cycles) + " != pinned " +
            std::to_string(it->second.cycles);
    if (cellDigest(workload, scale, r) != it->second.digest)
        return "result differs from pinned digest";
    return {};
}

} // namespace pfbench
