#include "spawn/spawn_io.hh"

#include "store/bytes.hh"

namespace polyflow {

namespace {

constexpr size_t recordBytes = 8 + 8 + 4 + 4 + 4;

/** Field offsets within one record. */
enum : size_t { atTrigger = 0, atTarget = 8, atKind = 16, atFunc = 20,
                atDepMask = 24 };

} // namespace

void
encodeSpawnPoints(const std::vector<SpawnPoint> &points,
                  std::string &out)
{
    const size_t base = out.size();
    out.resize(base + 8 + recordBytes * points.size());
    char *p = out.data() + base;
    store::storeLE<std::uint64_t>(p, points.size());
    for (p += 8; const SpawnPoint &sp : points) {
        store::storeLE<Addr>(p + atTrigger, sp.triggerPc);
        store::storeLE<Addr>(p + atTarget, sp.targetPc);
        store::storeLE(p + atKind, static_cast<std::uint32_t>(sp.kind));
        store::storeLE(p + atFunc, static_cast<std::uint32_t>(sp.func));
        store::storeLE<std::uint32_t>(p + atDepMask, sp.depMask);
        p += recordBytes;
    }
}

bool
decodeSpawnPoints(std::string_view payload,
                  std::vector<SpawnPoint> &out)
{
    if (payload.size() < 8)
        return false;
    const std::uint64_t count = store::loadLE<std::uint64_t>(payload.data());
    const std::string_view records = payload.substr(8);
    if (records.size() % recordBytes != 0 ||
        records.size() / recordBytes != count)
        return false;

    std::vector<SpawnPoint> points(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const char *p = records.data() + i * recordBytes;
        SpawnPoint &sp = points[i];
        const auto kind = store::loadLE<std::uint32_t>(p + atKind);
        if (kind >= static_cast<std::uint32_t>(SpawnKind::NumKinds))
            return false;
        sp.triggerPc = store::loadLE<Addr>(p + atTrigger);
        sp.targetPc = store::loadLE<Addr>(p + atTarget);
        sp.kind = static_cast<SpawnKind>(kind);
        sp.func = static_cast<FuncId>(
            store::loadLE<std::uint32_t>(p + atFunc));
        sp.depMask = store::loadLE<std::uint32_t>(p + atDepMask);
    }
    out = std::move(points);
    return true;
}

} // namespace polyflow
