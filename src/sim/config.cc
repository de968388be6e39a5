#include "sim/config.hh"

#include <bit>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace polyflow {

std::string
MachineConfig::describe() const
{
    std::ostringstream os;
    os << "pipeline width " << pipelineWidth << ", tasks " << numTasks
       << ", ROB " << robEntries << ", scheduler " << schedEntries
       << ", divert queue " << divertEntries << ", FUs " << numFUs
       << ", gshare " << (gshareCounters * 2 / 1024) << "Kbit/"
       << historyBits << "b hist"
       << ", L1I " << l1i.sizeBytes / 1024 << "KB/" << l1i.assoc
       << "way/" << l1i.lineBytes << "B"
       << ", L1D " << l1d.sizeBytes / 1024 << "KB/" << l1d.assoc
       << "way/" << l1d.lineBytes << "B"
       << ", L2 " << l2.sizeBytes / 1024 << "KB/" << l2.assoc
       << "way/" << l2.lineBytes << "B";
    return os.str();
}

void
MachineConfig::validate() const
{
    auto reject = [](const std::string &why) {
        throw std::invalid_argument("MachineConfig: " + why);
    };
    const std::pair<const char *, int> counts[] = {
        {"pipelineWidth", pipelineWidth},
        {"numTasks", numTasks},
        {"robEntries", robEntries},
        {"schedEntries", schedEntries},
        {"divertEntries", divertEntries},
        {"numFUs", numFUs},
        {"fetchTasksPerCycle", fetchTasksPerCycle},
        {"fetchQueueEntries", fetchQueueEntries},
        {"returnStackEntries", returnStackEntries},
    };
    for (const auto &[name, value] : counts) {
        if (value <= 0) {
            reject(std::string(name) + " must be positive, got " +
                   std::to_string(value));
        }
    }
    const std::pair<const char *, int> delays[] = {
        {"intLatency", intLatency},
        {"mulLatency", mulLatency},
        {"divLatency", divLatency},
        {"loadLatency", loadLatency},
        {"divertReleaseDelay", divertReleaseDelay},
        {"robReservePerOlderTask", robReservePerOlderTask},
        {"l1i.missLatency", l1i.missLatency},
        {"l1d.missLatency", l1d.missLatency},
        {"l2.missLatency", l2.missLatency},
    };
    for (const auto &[name, value] : delays) {
        if (value < 0) {
            reject(std::string(name) + " must not be negative, got " +
                   std::to_string(value));
        }
    }
    const std::pair<const char *, const CacheConfig *> caches[] = {
        {"l1i", &l1i}, {"l1d", &l1d}, {"l2", &l2}};
    for (const auto &[name, c] : caches) {
        if (c->sizeBytes <= 0 || c->assoc <= 0 || c->lineBytes <= 0) {
            reject(std::string(name) +
                   ": sizeBytes, assoc and lineBytes must be "
                   "positive");
        }
        if (std::popcount(unsigned(c->lineBytes)) != 1) {
            reject(std::string(name) + ".lineBytes must be a power of "
                   "two, got " + std::to_string(c->lineBytes));
        }
        const long long sets =
            c->sizeBytes / (static_cast<long long>(c->lineBytes) *
                            c->assoc);
        if (sets <= 0 || (sets & (sets - 1)) != 0) {
            reject(std::string(name) + " has " +
                   std::to_string(sets) +
                   " sets (sizeBytes / (lineBytes * assoc)); the set "
                   "count must be a power of two");
        }
    }
}

} // namespace polyflow
