#include "store/artifact_store.hh"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "isa/trace_io.hh"
#include "spawn/spawn_io.hh"
#include "store/bytes.hh"

namespace polyflow::store {

namespace fs = std::filesystem;

namespace {

constexpr char magic[8] = {'P', 'F', 'A', 'R', 'T', 'F', 'C', 'T'};

/** Exact round-trip formatting of a scale, matching the in-memory
 *  SweepCache key so the two tiers agree on identity. */
std::string
scaleText(double scale)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", scale);
    return buf;
}

std::string
hexU64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Whole file as bytes, or nullopt on any I/O error. */
std::optional<std::string>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        return std::nullopt;
    return data;
}

/** Parse + fully validate one container file: magic, version,
 *  kind, key hash, payload length and checksum. On success @p key,
 *  @p kind and @p payload are set. */
bool
parseContainer(const std::string &data, ArtifactKind &kind,
               std::string &key, std::string &payload)
{
    ByteReader r(data);
    std::string m;
    if (!r.bytes(m, sizeof(magic)) ||
        std::memcmp(m.data(), magic, sizeof(magic)) != 0)
        return false;
    std::uint32_t version = 0, rawKind = 0;
    std::uint64_t keyHash = 0, payloadBytes = 0, payloadHash = 0;
    std::uint16_t keyLen = 0;
    if (!r.u32(version) || !r.u32(rawKind) || !r.u64(keyHash) ||
        !r.u64(payloadBytes) || !r.u64(payloadHash) || !r.u16(keyLen))
        return false;
    if (version != formatVersion ||
        rawKind < std::uint32_t(ArtifactKind::Trace) ||
        rawKind > std::uint32_t(ArtifactKind::Hints))
        return false;
    if (!r.bytes(key, keyLen) || fnv1a(key) != keyHash)
        return false;
    if (r.remaining() != payloadBytes ||
        !r.bytes(payload, static_cast<size_t>(payloadBytes)) ||
        fnv1a(payload) != payloadHash)
        return false;
    kind = static_cast<ArtifactKind>(rawKind);
    return true;
}

const char *
artifactKindName(ArtifactKind k)
{
    switch (k) {
      case ArtifactKind::Trace: return "trace";
      case ArtifactKind::Analysis: return "analysis";
      case ArtifactKind::Hints: return "hints";
    }
    return "?";
}

} // namespace

std::uint64_t
programContentHash(const LinkedProgram &prog)
{
    std::uint64_t h = fnvOffsetBasis;
    h = fnv1aU64(prog.size(), h);
    h = fnv1aU64(prog.entryAddr(), h);
    h = fnv1aU64(prog.codeBegin(), h);
    h = fnv1aU64(prog.codeEnd(), h);
    for (const LinkedInstr &li : prog.image()) {
        const Instruction &in = li.instr;
        h = fnv1aU64(static_cast<std::uint64_t>(in.op), h);
        h = fnv1aU64(in.rd, h);
        h = fnv1aU64(in.rs1, h);
        h = fnv1aU64(in.rs2, h);
        h = fnv1aU64(static_cast<std::uint64_t>(in.imm), h);
        h = fnv1aU64(li.addr, h);
        h = fnv1aU64(li.targetAddr, h);
        h = fnv1aU64(static_cast<std::uint64_t>(li.func), h);
        h = fnv1aU64(static_cast<std::uint64_t>(li.block), h);
        h = fnv1aU64(li.blockStart ? 1 : 0, h);
    }
    for (const DataInit &d : prog.dataInits()) {
        h = fnv1aU64(d.addr, h);
        h = fnv1aU64(d.bytes.size(), h);
        h = fnv1a(std::string_view(
                      reinterpret_cast<const char *>(d.bytes.data()),
                      d.bytes.size()),
                  h);
    }
    return h;
}

ArtifactStore::ArtifactStore(fs::path root) : _root(std::move(root))
{
    std::error_code ec;
    fs::create_directories(_root, ec);
    // A failure here just means every save fails later; loads on a
    // missing directory are plain misses.
}

std::shared_ptr<ArtifactStore>
ArtifactStore::openFromEnv()
{
    const char *dir = std::getenv("PF_CACHE_DIR");
    if (!dir || !*dir || std::string_view(dir) == "off")
        return nullptr;
    return std::make_shared<ArtifactStore>(fs::path(dir));
}

std::string
ArtifactStore::keyString(ArtifactKind kind, const std::string &name,
                         double scale, const LinkedProgram &prog,
                         unsigned kindMask) const
{
    std::string key = artifactKindName(kind);
    key += '|';
    key += name;
    key += '@';
    key += scaleText(scale);
    key += '|';
    key += hexU64(programContentHash(prog));
    key += "|v";
    key += std::to_string(formatVersion);
    if (kind == ArtifactKind::Hints) {
        key += "|m";
        key += std::to_string(kindMask);
    }
    return key;
}

fs::path
ArtifactStore::pathFor(ArtifactKind kind,
                       const std::string &key) const
{
    return _root / (std::string(artifactKindName(kind)) + "-" +
                    hexU64(fnv1a(key)) + ".pfa");
}

std::optional<std::string>
ArtifactStore::loadPayload(ArtifactKind kind,
                           const std::string &key) const
{
    auto data = readFile(pathFor(kind, key));
    if (!data) {
        ++_misses;
        return std::nullopt;
    }
    ArtifactKind gotKind;
    std::string gotKey, payload;
    if (!parseContainer(*data, gotKind, gotKey, payload) ||
        gotKind != kind || gotKey != key) {
        ++_misses;
        return std::nullopt;
    }
    ++_hits;
    return payload;
}

bool
ArtifactStore::savePayload(ArtifactKind kind, const std::string &key,
                           const std::string &payload)
{
    std::string file;
    file.reserve(64 + key.size() + payload.size());
    file.append(magic, sizeof(magic));
    putU32(file, formatVersion);
    putU32(file, static_cast<std::uint32_t>(kind));
    putU64(file, fnv1a(key));
    putU64(file, payload.size());
    putU64(file, fnv1a(payload));
    putU16(file, static_cast<std::uint16_t>(key.size()));
    file += key;
    file += payload;

    static std::atomic<unsigned> tmpCounter{0};
    fs::path dest = pathFor(kind, key);
    fs::path tmp = dest;
    tmp += ".tmp-" + std::to_string(::getpid()) + "-" +
        std::to_string(tmpCounter.fetch_add(1));

    std::error_code ec;
    fs::create_directories(_root, ec);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out || !out.write(file.data(),
                               static_cast<std::streamsize>(
                                   file.size()))) {
            ++_saveFailures;
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, dest, ec);
    if (ec) {
        ++_saveFailures;
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

std::optional<Trace>
ArtifactStore::loadTrace(const std::string &name, double scale,
                         const LinkedProgram &prog) const
{
    auto payload = loadPayload(
        ArtifactKind::Trace,
        keyString(ArtifactKind::Trace, name, scale, prog, 0));
    if (!payload)
        return std::nullopt;
    Trace t;
    if (!decodeTrace(*payload, prog, t))
        return std::nullopt;
    return t;
}

bool
ArtifactStore::saveTrace(const std::string &name, double scale,
                         const LinkedProgram &prog,
                         const Trace &trace)
{
    std::string payload;
    encodeTrace(trace, payload);
    return savePayload(
        ArtifactKind::Trace,
        keyString(ArtifactKind::Trace, name, scale, prog, 0),
        payload);
}

std::optional<std::vector<SpawnPoint>>
ArtifactStore::loadAnalysisPoints(const std::string &name,
                                  double scale,
                                  const LinkedProgram &prog) const
{
    auto payload = loadPayload(
        ArtifactKind::Analysis,
        keyString(ArtifactKind::Analysis, name, scale, prog, 0));
    if (!payload)
        return std::nullopt;
    std::vector<SpawnPoint> points;
    if (!decodeSpawnPoints(*payload, points))
        return std::nullopt;
    return points;
}

bool
ArtifactStore::saveAnalysisPoints(
    const std::string &name, double scale, const LinkedProgram &prog,
    const std::vector<SpawnPoint> &points)
{
    std::string payload;
    encodeSpawnPoints(points, payload);
    return savePayload(
        ArtifactKind::Analysis,
        keyString(ArtifactKind::Analysis, name, scale, prog, 0),
        payload);
}

std::optional<std::vector<SpawnPoint>>
ArtifactStore::loadHintPoints(const std::string &name, double scale,
                              const LinkedProgram &prog,
                              unsigned kindMask) const
{
    auto payload = loadPayload(
        ArtifactKind::Hints,
        keyString(ArtifactKind::Hints, name, scale, prog, kindMask));
    if (!payload)
        return std::nullopt;
    std::vector<SpawnPoint> points;
    if (!decodeSpawnPoints(*payload, points))
        return std::nullopt;
    return points;
}

bool
ArtifactStore::saveHintPoints(const std::string &name, double scale,
                              const LinkedProgram &prog,
                              unsigned kindMask,
                              const std::vector<SpawnPoint> &points)
{
    std::string payload;
    encodeSpawnPoints(points, payload);
    return savePayload(
        ArtifactKind::Hints,
        keyString(ArtifactKind::Hints, name, scale, prog, kindMask),
        payload);
}

std::vector<EntryInfo>
ArtifactStore::entries() const
{
    std::vector<EntryInfo> out;
    std::error_code ec;
    fs::directory_iterator it(_root, ec);
    if (ec)
        return out;
    for (const auto &de : it) {
        if (de.is_regular_file(ec) && de.path().extension() == ".pfa")
            out.push_back({de.path(), de.file_size(ec)});
    }
    return out;
}

} // namespace polyflow::store
