#include "stats/export.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "spawn/spawn_point.hh"

namespace polyflow::stats {

namespace {

/** Exact round-trip formatting for the scale knob. */
std::string
fmtScale(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fmtIpc(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

/** Minimal JSON string escaping (labels are ASCII identifiers, but
 *  stay safe). */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

/** Appends `"key": value` lines with deterministic layout. */
class ObjWriter
{
  public:
    ObjWriter(std::string &out, int indent)
        : _out(out), _indent(indent)
    {
        pad(_indent);
        _out += "{\n";
    }

    void
    field(const std::string &key, const std::string &rawValue)
    {
        if (_fields++)
            _out += ",\n";
        pad(_indent + 2);
        _out += jsonStr(key);
        _out += ": ";
        _out += rawValue;
    }

    void
    field(const std::string &key, std::uint64_t v)
    {
        field(key, std::to_string(v));
    }

    void
    close()
    {
        _out += "\n";
        pad(_indent);
        _out += "}";
    }

    void
    pad(int n)
    {
        _out.append(static_cast<size_t>(n), ' ');
    }

  private:
    std::string &_out;
    int _indent;
    int _fields = 0;
};

/** `{"name": count, ...}` on one line, in enum order. */
template <typename NameFn, typename Array>
std::string
countsObject(const Array &counts, int n, NameFn name)
{
    std::string out = "{";
    for (int k = 0; k < n; ++k) {
        if (k)
            out += ", ";
        out += jsonStr(name(k));
        out += ": ";
        out += std::to_string(counts[static_cast<size_t>(k)]);
    }
    out += "}";
    return out;
}

/** The plain TimingResult counters between the spawn-kind counts and
 *  the slot buckets, in export order: the JSON fields and the CSV
 *  columns both come from this one list. */
constexpr std::pair<const char *, std::uint64_t TimingResult::*>
    kCounters[] = {
        {"spawnsSkippedNoContext", &TimingResult::spawnsSkippedNoContext},
        {"spawnsSkippedDistance", &TimingResult::spawnsSkippedDistance},
        {"spawnsSkippedFeedback", &TimingResult::spawnsSkippedFeedback},
        {"triggersDisabled", &TimingResult::triggersDisabled},
        {"tasksRetired", &TimingResult::tasksRetired},
        {"tasksSquashed", &TimingResult::tasksSquashed},
        {"violations", &TimingResult::violations},
        {"instrsDiverted", &TimingResult::instrsDiverted},
        {"divertQueueFullStalls", &TimingResult::divertQueueFullStalls},
        {"condBranches", &TimingResult::condBranches},
        {"branchMispredicts", &TimingResult::branchMispredicts},
        {"indirectMispredicts", &TimingResult::indirectMispredicts},
        {"returnMispredicts", &TimingResult::returnMispredicts},
        {"icacheMisses", &TimingResult::icacheMisses},
        {"dcacheMisses", &TimingResult::dcacheMisses},
};

} // namespace

std::string
runToJson(const RunRecord &r, int indent)
{
    const TimingResult &s = r.sim;
    std::string out;
    ObjWriter w(out, indent);
    w.field("workload", jsonStr(r.workload));
    w.field("scale", fmtScale(r.scale));
    w.field("label", jsonStr(r.label));
    w.field("policyName", jsonStr(s.policyName));
    w.field("cycles", s.cycles);
    w.field("instrs", s.instrs);
    w.field("issueWidth", s.issueWidth);
    w.field("ipc", fmtIpc(s.ipc()));
    w.field("spawns", s.spawns);
    w.field("spawnsByKind",
            countsObject(s.spawnsByKind, numSpawnKinds, [](int k) {
                return spawnKindName(static_cast<SpawnKind>(k));
            }));
    for (const auto &[name, member] : kCounters)
        w.field(name, s.*member);
    w.field("slots",
            countsObject(s.slots, numSlotBuckets, [](int k) {
                return slotBucketName(static_cast<SlotBucket>(k));
            }));
    w.field("slotTotal", s.slotTotal());
    w.close();
    return out;
}

std::string
toJson(const std::vector<RunRecord> &records)
{
    std::string out = "{\n  \"runs\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
        out += runToJson(records[i], 4);
        out += i + 1 < records.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
toCsv(const std::vector<RunRecord> &records)
{
    std::string out = "workload,scale,label,cycles,instrs,"
                      "issueWidth,ipc,spawns";
    for (int k = 0; k < numSpawnKinds; ++k) {
        out += ",spawns:";
        out += spawnKindName(static_cast<SpawnKind>(k));
    }
    for (const auto &[name, member] : kCounters) {
        out += ',';
        out += name;
    }
    for (int k = 0; k < numSlotBuckets; ++k) {
        out += ",slot:";
        out += slotBucketName(static_cast<SlotBucket>(k));
    }
    out += "\n";

    for (const RunRecord &r : records) {
        const TimingResult &s = r.sim;
        out += r.workload;
        out += ',';
        out += fmtScale(r.scale);
        out += ',';
        out += r.label;
        auto add = [&](std::uint64_t v) {
            out += ',';
            out += std::to_string(v);
        };
        add(s.cycles);
        add(s.instrs);
        add(s.issueWidth);
        out += ',';
        out += fmtIpc(s.ipc());
        add(s.spawns);
        for (int k = 0; k < numSpawnKinds; ++k)
            add(s.spawnsByKind[static_cast<size_t>(k)]);
        for (const auto &[name, member] : kCounters)
            add(s.*member);
        for (int k = 0; k < numSlotBuckets; ++k)
            add(s.slots[static_cast<size_t>(k)]);
        out += '\n';
    }
    return out;
}

void
checkSlotIdentity(const RunRecord &r)
{
    const TimingResult &s = r.sim;
    if (s.slotTotal() == s.cycles * s.issueWidth)
        return;
    std::fprintf(stderr,
                 "accounting identity violated for %s/%s: %llu slots "
                 "!= %llu cycles x %llu\n",
                 r.workload.c_str(), r.label.c_str(),
                 (unsigned long long)s.slotTotal(),
                 (unsigned long long)s.cycles,
                 (unsigned long long)s.issueWidth);
    std::exit(1);
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot write " + path);
    f.write(content.data(),
            static_cast<std::streamsize>(content.size()));
    if (!f)
        throw std::runtime_error("short write to " + path);
}

} // namespace polyflow::stats
