#include "workloads/workloads.hh"

#include <stdexcept>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

struct Entry
{
    const char *name;
    Workload (*build)(double scale);
};

/** The suite, in the paper's x-axis order. */
constexpr Entry registry[] = {
    {"bzip2", buildBzip2},       {"crafty", buildCrafty},
    {"gap", buildGap},           {"gcc", buildGcc},
    {"gzip", buildGzip},         {"mcf", buildMcf},
    {"parser", buildParser},     {"perlbmk", buildPerlbmk},
    {"twolf", buildTwolf},       {"vortex", buildVortex},
    {"vpr.place", buildVprPlace}, {"vpr.route", buildVprRoute},
};

} // namespace

const std::vector<std::string> &
allWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Entry &e : registry)
            n.emplace_back(e.name);
        return n;
    }();
    return names;
}

Workload
buildWorkload(const std::string &name, double scale)
{
    for (const Entry &e : registry) {
        if (name == e.name)
            return e.build(scale);
    }
    throw std::runtime_error("unknown workload: " + name);
}

} // namespace polyflow
