#include "store/artifact_store.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

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

/** Header field offsets; the key follows the header, the payload
 *  follows the key. */
enum : size_t { atVersion = 8, atKind = 12, atKeyHash = 16,
                atPayloadBytes = 24, atPayloadHash = 32, atKeyLen = 40,
                headerBytes = 42 };

/** Whole file into @p out with one sized read; false on any I/O
 *  error or short read. */
bool
readFile(const fs::path &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st;
    bool ok = ::fstat(fd, &st) == 0;
    if (ok) {
        out.resize(static_cast<size_t>(st.st_size));
        ok = ::read(fd, out.data(), out.size()) ==
            static_cast<ssize_t>(out.size());
    }
    ::close(fd);
    return ok;
}

/** @p head then @p body into a new file at @p path; false on any
 *  I/O error or short write, and on a failed close. */
bool
writeFile(const fs::path &path, std::string_view head,
          std::string_view body)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0)
        return false;
    bool ok = true;
    for (std::string_view part : {head, body})
        ok = ok && ::write(fd, part.data(), part.size()) ==
            static_cast<ssize_t>(part.size());
    return ::close(fd) == 0 && ok;
}

/** The payload of container @p file, in place, once the magic,
 *  version, kind, key, payload length and checksum all match; else
 *  nullopt. */
std::optional<std::string_view>
parseContainer(std::string_view file, ArtifactKind kind,
               std::string_view key)
{
    if (file.size() < headerBytes ||
        file.substr(0, sizeof(magic)) !=
            std::string_view(magic, sizeof(magic)))
        return std::nullopt;
    const char *h = file.data();
    const auto keyLen = loadLE<std::uint16_t>(h + atKeyLen);
    if (keyLen != key.size() || file.substr(headerBytes, keyLen) != key)
        return std::nullopt;
    const std::string_view payload = file.substr(headerBytes + keyLen);
    if (loadLE<std::uint32_t>(h + atVersion) != formatVersion ||
        loadLE<std::uint32_t>(h + atKind) != std::uint32_t(kind) ||
        loadLE<std::uint64_t>(h + atKeyHash) != fnv1a(key) ||
        loadLE<std::uint64_t>(h + atPayloadBytes) != payload.size() ||
        loadLE<std::uint64_t>(h + atPayloadHash) != wordHash(payload))
        return std::nullopt;
    return payload;
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
    key += hexU64(prog.contentHash());
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

std::optional<std::string_view>
ArtifactStore::loadPayload(ArtifactKind kind, const std::string &key,
                           std::string &file) const
{
    if (!readFile(pathFor(kind, key), file))
        return std::nullopt;
    return parseContainer(file, kind, key);
}

bool
ArtifactStore::tally(bool hit) const
{
    ++(hit ? _hits : _misses);
    return hit;
}

bool
ArtifactStore::savePayload(ArtifactKind kind, const std::string &key,
                           std::string_view payload)
{
    std::string head(magic, sizeof(magic));
    head.resize(headerBytes);
    storeLE<std::uint32_t>(head.data() + atVersion, formatVersion);
    storeLE(head.data() + atKind, static_cast<std::uint32_t>(kind));
    storeLE<std::uint64_t>(head.data() + atKeyHash, fnv1a(key));
    storeLE<std::uint64_t>(head.data() + atPayloadBytes, payload.size());
    storeLE<std::uint64_t>(head.data() + atPayloadHash, wordHash(payload));
    storeLE(head.data() + atKeyLen, static_cast<std::uint16_t>(key.size()));
    head += key;

    static std::atomic<unsigned> tmpCounter{0};
    fs::path dest = pathFor(kind, key);
    fs::path tmp = dest;
    tmp += ".tmp-" + std::to_string(::getpid()) + "-" +
        std::to_string(tmpCounter.fetch_add(1));

    std::error_code ec;
    fs::create_directories(_root, ec);
    bool ok = writeFile(tmp, head, payload);
    if (ok) {
        fs::rename(tmp, dest, ec);
        ok = !ec;
    }
    if (!ok) {
        ++_saveFailures;
        fs::remove(tmp, ec);
    }
    return ok;
}

std::optional<Trace>
ArtifactStore::loadTrace(const std::string &name, double scale,
                         const LinkedProgram &prog) const
{
    std::string file;
    const auto payload = loadPayload(
        ArtifactKind::Trace,
        keyString(ArtifactKind::Trace, name, scale, prog, 0), file);
    Trace t;
    if (!tally(payload && decodeTrace(*payload, prog, t)))
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
ArtifactStore::loadPoints(ArtifactKind kind, const std::string &name,
                          double scale, const LinkedProgram &prog,
                          unsigned kindMask) const
{
    std::string file;
    const auto payload = loadPayload(
        kind, keyString(kind, name, scale, prog, kindMask), file);
    std::vector<SpawnPoint> points;
    if (!tally(payload && decodeSpawnPoints(*payload, points)))
        return std::nullopt;
    return points;
}

bool
ArtifactStore::savePoints(ArtifactKind kind, const std::string &name,
                          double scale, const LinkedProgram &prog,
                          unsigned kindMask,
                          const std::vector<SpawnPoint> &points)
{
    std::string payload;
    encodeSpawnPoints(points, payload);
    return savePayload(
        kind, keyString(kind, name, scale, prog, kindMask), payload);
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
