/**
 * @file
 * The opt-in, content-addressed artifact store.
 *
 * When $PF_CACHE_DIR names a directory, SweepRunner's cache persists
 * the committed traces, spawn analyses and hint tables it builds
 * there, each serialized into a versioned binary container and keyed
 * by
 *
 *     (artifact kind, workload name, scale,
 *      linked-program content hash, format version
 *      [, policy kind mask for hint tables])
 *
 * so a workload edit, a scale change or a format bump misses and
 * rebuilds. The key does NOT cover the code that builds an artifact:
 * after an edit to the functional simulator, the spawn analysis or
 * the hint-table builder, a warm store serves artifacts of the old
 * code. Use a fresh directory per build (perfbench does, per run).
 * With PF_CACHE_DIR unset, empty or "off" nothing touches disk.
 *
 * Container layout (little-endian, formatVersion 4):
 *
 *     magic "PFARTFCT" | u32 formatVersion | u32 kind
 *     u64 keyHash (FNV-1a) | u64 payloadBytes
 *     u64 payloadHash (four-lane wordHash, store/bytes.hh)
 *     u16 keyLen | key string | payload
 *
 * A load reads the file with one sized read and decodes the payload
 * in place. It validates all of it — magic, version, kind, full key
 * string, payload length, checksum and every payload record — and
 * reports any mismatch as a plain miss, so corrupt, truncated or
 * version-skewed files fall back to a rebuild, never a crash or a
 * wrong result; the checksum catches every single-byte change. Saves
 * are atomic (unique temp file + rename), so concurrent writers of
 * the same key race benignly: readers see either nothing or one
 * complete entry. Every save is best-effort: a failed or short write
 * or close, or a failed rename, removes the temp file and is
 * counted, not raised. Deleting the directory is always safe.
 */

#ifndef POLYFLOW_STORE_ARTIFACT_STORE_HH
#define POLYFLOW_STORE_ARTIFACT_STORE_HH

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.hh"
#include "isa/trace.hh"
#include "spawn/spawn_point.hh"

namespace polyflow::store {

/** Bumped whenever any container or payload layout changes (3:
 *  trace payloads became the Trace's own arrays; 4: 8-byte records
 *  with back-distance producers, a far-producer table and a side
 *  bitmap). */
constexpr std::uint32_t formatVersion = 4;

/** What a store entry holds. */
enum class ArtifactKind : std::uint32_t {
    Trace = 1,     //!< committed dynamic trace (isa/trace_io.hh)
    Analysis = 2,  //!< SpawnAnalysis points (spawn/spawn_io.hh)
    Hints = 3,     //!< HintTable points for one policy kind mask
};

/** One store file, as listed by ArtifactStore::entries(). */
struct EntryInfo
{
    std::filesystem::path path;
    std::uintmax_t fileBytes = 0;
};

class ArtifactStore
{
  public:
    /** Open (and lazily create) a store rooted at @p root. */
    explicit ArtifactStore(std::filesystem::path root);

    /**
     * Open the store $PF_CACHE_DIR names. Returns nullptr — no
     * store — when PF_CACHE_DIR is unset, empty or "off".
     */
    static std::shared_ptr<ArtifactStore> openFromEnv();

    const std::filesystem::path &root() const { return _root; }

    /** @name Typed load/save (the SweepCache read-through tier) @{ */
    /**
     * Load the committed trace for (@p name, @p scale, @p prog).
     * The decoded trace is bound to @p prog. nullopt on miss or on
     * any validation failure.
     */
    std::optional<Trace> loadTrace(const std::string &name,
                                   double scale,
                                   const LinkedProgram &prog) const;
    bool saveTrace(const std::string &name, double scale,
                   const LinkedProgram &prog, const Trace &trace);

    /** SpawnAnalysis points, in original analysis order. */
    std::optional<std::vector<SpawnPoint>>
    loadAnalysisPoints(const std::string &name, double scale,
                       const LinkedProgram &prog) const
    {
        return loadPoints(ArtifactKind::Analysis, name, scale, prog, 0);
    }
    bool
    saveAnalysisPoints(const std::string &name, double scale,
                       const LinkedProgram &prog,
                       const std::vector<SpawnPoint> &points)
    {
        return savePoints(ArtifactKind::Analysis, name, scale, prog, 0,
                          points);
    }

    /** HintTable points for one policy kind mask. */
    std::optional<std::vector<SpawnPoint>>
    loadHintPoints(const std::string &name, double scale,
                   const LinkedProgram &prog, unsigned kindMask) const
    {
        return loadPoints(ArtifactKind::Hints, name, scale, prog,
                          kindMask);
    }
    bool
    saveHintPoints(const std::string &name, double scale,
                   const LinkedProgram &prog, unsigned kindMask,
                   const std::vector<SpawnPoint> &points)
    {
        return savePoints(ArtifactKind::Hints, name, scale, prog,
                          kindMask, points);
    }
    /** @} */

    /** Every *.pfa file under the root, in directory order. The
     *  files are listed, not read or validated. */
    std::vector<EntryInfo> entries() const;

    /** @name Hit/miss accounting for reporting and tests @{ */
    int hits() const { return _hits.load(); }
    int misses() const { return _misses.load(); }
    int saveFailures() const { return _saveFailures.load(); }
    /** @} */

  private:
    std::string keyString(ArtifactKind kind, const std::string &name,
                          double scale, const LinkedProgram &prog,
                          unsigned kindMask) const;
    std::filesystem::path pathFor(ArtifactKind kind,
                                  const std::string &key) const;

    /** Validated payload of the entry for @p key, read into @p file
     *  and viewed in place; nullopt on a miss. */
    std::optional<std::string_view>
    loadPayload(ArtifactKind kind, const std::string &key,
                std::string &file) const;
    bool savePayload(ArtifactKind kind, const std::string &key,
                     std::string_view payload);
    /** Count a load as a hit or a miss; returns @p hit. */
    bool tally(bool hit) const;

    std::optional<std::vector<SpawnPoint>>
    loadPoints(ArtifactKind kind, const std::string &name, double scale,
               const LinkedProgram &prog, unsigned kindMask) const;
    bool savePoints(ArtifactKind kind, const std::string &name,
                    double scale, const LinkedProgram &prog,
                    unsigned kindMask,
                    const std::vector<SpawnPoint> &points);

    std::filesystem::path _root;
    mutable std::atomic<int> _hits{0};
    mutable std::atomic<int> _misses{0};
    std::atomic<int> _saveFailures{0};
};

} // namespace polyflow::store

#endif // POLYFLOW_STORE_ARTIFACT_STORE_HH
