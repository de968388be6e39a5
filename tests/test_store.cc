/**
 * @file
 * Tests for the persistent artifact store: exact round-trips of
 * every artifact kind, rejection (as a miss, never a crash) of
 * corrupt / truncated / version-skewed containers and of malformed
 * trace payloads, a failed save's cleanup, rebuild fallback
 * through SweepCache, concurrent same-key writers, cold-vs-warm
 * equality of whole pipeline outputs, and which callers the
 * environment opts into a store.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "driver/session.hh"
#include "driver/sweep.hh"
#include "isa/functional_sim.hh"
#include "isa/trace_io.hh"
#include "spawn/spawn_io.hh"
#include "store/artifact_store.hh"
#include "store/bytes.hh"
#include "store/sha256.hh"
#include "workloads/workloads.hh"

namespace polyflow {
namespace {

namespace fs = std::filesystem;
using store::ArtifactStore;

/** These tests manage their own store roots. */
const bool kEnvStoreDisabled = [] {
    ::setenv("PF_CACHE_DIR", "off", 1);
    return true;
}();

/** Fresh private store root per test. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _root = fs::temp_directory_path() /
            ("pf-store-test-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
        fs::remove_all(_root);
    }

    void TearDown() override { fs::remove_all(_root); }

    fs::path _root;
};

Workload
smallWorkload()
{
    return buildWorkload("twolf", 0.02);
}

Trace
traceOf(const Workload &w)
{
    FunctionalOptions opt;
    opt.recordTrace = true;
    FunctionalResult r = runFunctional(w.prog, opt);
    EXPECT_TRUE(r.halted);
    return std::move(r.trace);
}

std::string
readBytes(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const fs::path &file, const std::string &bytes)
{
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void
expectSameTrace(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (TraceIdx i = 0; i < a.size(); ++i) {
        const DynInstr &x = a.instrs[i];
        const DynInstr &y = b.instrs[i];
        ASSERT_EQ(x.img(), y.img()) << "at " << i;
        ASSERT_EQ(x.taken(), y.taken()) << "at " << i;
        ASSERT_EQ(a.effAddr(x), b.effAddr(y)) << "at " << i;
        ASSERT_EQ(x.prod[0], y.prod[0]) << "at " << i;
        ASSERT_EQ(x.prod[1], y.prod[1]) << "at " << i;
        ASSERT_EQ(a.memProd(x), b.memProd(y)) << "at " << i;
    }
}

void
expectSamePoints(const std::vector<SpawnPoint> &a,
                 const std::vector<SpawnPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].triggerPc, b[i].triggerPc) << "at " << i;
        EXPECT_EQ(a[i].targetPc, b[i].targetPc) << "at " << i;
        EXPECT_EQ(a[i].kind, b[i].kind) << "at " << i;
        EXPECT_EQ(a[i].func, b[i].func) << "at " << i;
        EXPECT_EQ(a[i].depMask, b[i].depMask) << "at " << i;
    }
}

// --- Codec round-trips (no filesystem involved).

TEST(TraceCodec, RoundTripsExactly)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);

    std::string payload;
    encodeTrace(t, payload);
    Trace back;
    ASSERT_TRUE(decodeTrace(payload, w.prog, back));
    EXPECT_EQ(back.prog, &w.prog);
    expectSameTrace(t, back);
}

TEST(TraceCodec, PayloadBytesArePinned)
{
    // The on-disk layout is fixed: a change here orphans every
    // existing store. perlbmk at scale 0.02 has loads with memory
    // producers, stores, taken branches, returns and indirect jumps.
    Workload w = buildWorkload("perlbmk", 0.02);
    std::string payload;
    encodeTrace(traceOf(w), payload);
    EXPECT_EQ(store::sha256Hex(payload),
              "2b31f93330089299eca5fa63f785b059"
              "75c358fc9caf98f4dac4bbb581805f12");
}

TEST(TraceCodec, RejectsTruncatedAndTrailingPayloads)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);
    std::string payload;
    encodeTrace(t, payload);

    Trace back;
    EXPECT_FALSE(decodeTrace(
        std::string_view(payload).substr(0, payload.size() - 1),
        w.prog, back));
    EXPECT_FALSE(decodeTrace(payload + "x", w.prog, back));
    EXPECT_FALSE(decodeTrace("", w.prog, back));
}

TEST(TraceCodec, RejectsOutOfRangeStaticIndex)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);
    // One record whose static-image index is past program end.
    const DynInstr &d = t.instrs.front();
    Trace evil;
    evil.prog = &w.prog;
    evil.append(static_cast<ImageIdx>(w.prog.size()), d.taken(),
                d.prod[0], d.prod[1], t.effAddr(d), t.memProd(d));
    std::string payload;
    encodeTrace(evil, payload);
    Trace back;
    EXPECT_FALSE(decodeTrace(payload, w.prog, back));
}

TEST(TraceCodec, RejectsAProducerNotOlderThanItsConsumer)
{
    Workload w = smallWorkload();
    const Trace t = traceOf(w);
    const DynInstr &d = t.instrs.front();
    for (int field = 0; field < 3; ++field) {
        // Record 0 names itself as a register or memory producer.
        TraceIdx p[3] = {d.prod[0], d.prod[1], t.memProd(d)};
        p[field] = 0;
        Trace evil;
        evil.prog = &w.prog;
        evil.append(d.img(), d.taken(), p[0], p[1], t.effAddr(d), p[2]);
        std::string payload;
        encodeTrace(evil, payload);
        Trace back;
        EXPECT_FALSE(decodeTrace(payload, w.prog, back)) << field;
    }
}

TEST(TraceCodec, RejectsAMemoryProducerOnANonLoad)
{
    Workload w = smallWorkload();
    const Trace t = traceOf(w);
    TraceIdx i = 1;
    while (t.staticOf(i).instr.isLoad())
        ++i;
    Trace evil;
    evil.prog = &w.prog;
    for (TraceIdx k = 0; k <= i; ++k) {
        const DynInstr &d = t.instrs[k];
        evil.append(d.img(), d.taken(), d.prod[0], d.prod[1],
                    t.effAddr(d), k == i ? 0 : t.memProd(d));
    }
    std::string payload;
    encodeTrace(evil, payload);
    Trace back;
    EXPECT_FALSE(decodeTrace(payload, w.prog, back));
}

TEST(TraceCodec, DecodedSideTableIsExactSized)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);
    std::string payload;
    encodeTrace(t, payload);
    Trace back;
    ASSERT_TRUE(decodeTrace(payload, w.prog, back));
    ASSERT_GT(back.sideSize(), 0u);
    EXPECT_EQ(back.sideSize(), t.sideSize());
    EXPECT_EQ(back.sideCapacity(), back.sideSize());
    EXPECT_EQ(back.instrs.capacity(), back.size());
}

/** The first @p n records of @p full, so every producer stays
 *  inside them. */
Trace
prefixOf(const Trace &full, TraceIdx n)
{
    Trace t;
    t.prog = full.prog;
    for (TraceIdx i = 0; i < n; ++i) {
        const DynInstr &d = full.instrs[i];
        t.append(d.img(), d.taken(), d.prod[0], d.prod[1],
                 full.effAddr(d), full.memProd(d));
    }
    return t;
}

/** @name Byte offsets into a trace payload (isa/trace_io.hh) @{ */
size_t sideAt(TraceIdx i) { return 16 + 16 * size_t(i) + 12; }
size_t
effAddrAt(const Trace &t, size_t slot)
{
    return 16 + 16 * t.size() + 8 * slot;
}
size_t
memProdAt(const Trace &t, size_t slot)
{
    return 16 + 16 * t.size() + 8 * t.sideSize() + 4 * slot;
}
/** @} */

/** Records of @p t with a side slot, in order. */
std::vector<TraceIdx>
sideRecords(const Trace &t)
{
    std::vector<TraceIdx> out;
    for (TraceIdx i = 0; i < t.size(); ++i) {
        if (t.instrs[i].side != DynInstr::noSide)
            out.push_back(i);
    }
    return out;
}

TEST(TraceCodec, RejectsAnOverClaimingHeader)
{
    Workload w = smallWorkload();
    const Trace t = prefixOf(traceOf(w), 64);
    std::string payload;
    encodeTrace(t, payload);
    Trace back;
    ASSERT_TRUE(decodeTrace(payload, w.prog, back));
    // Counts whose byte sizes wrap around to the true ones: 2^60
    // more records, or 2^62 more slots, claim 0 more bytes mod 2^64.
    for (auto [at, extra] : {std::pair{0, std::uint64_t(1) << 60},
                             std::pair{8, std::uint64_t(1) << 62}}) {
        std::string evil = payload;
        store::storeLE<std::uint64_t>(
            evil.data() + at,
            store::loadLE<std::uint64_t>(evil.data() + at) + extra);
        EXPECT_FALSE(decodeTrace(evil, w.prog, back)) << at;
    }
}

TEST(TraceCodec, RejectsASideSlotOutOfOrder)
{
    Workload w = smallWorkload();
    const Trace t = prefixOf(traceOf(w), 64);
    // Two records without a memory producer swap their slots.
    std::vector<TraceIdx> pick;
    for (TraceIdx i : sideRecords(t)) {
        if (t.memProd(t.instrs[i]) == invalidTrace && pick.size() < 2)
            pick.push_back(i);
    }
    ASSERT_EQ(pick.size(), 2u);
    std::string payload;
    encodeTrace(t, payload);
    store::storeLE(payload.data() + sideAt(pick[0]),
                   t.instrs[pick[1]].side);
    store::storeLE(payload.data() + sideAt(pick[1]),
                   t.instrs[pick[0]].side);
    Trace back;
    EXPECT_FALSE(decodeTrace(payload, w.prog, back));
}

TEST(TraceCodec, RejectsASideSlotNoRecordNames)
{
    Workload w = smallWorkload();
    const Trace t = prefixOf(traceOf(w), 64);
    // The last record with a slot gives it up.
    const TraceIdx last = sideRecords(t).back();
    std::string payload;
    encodeTrace(t, payload);
    store::storeLE(payload.data() + sideAt(last), DynInstr::noSide);
    Trace back;
    EXPECT_FALSE(decodeTrace(payload, w.prog, back));
}

TEST(TraceCodec, RejectsASideSlotWithNeitherField)
{
    Workload w = smallWorkload();
    const Trace t = prefixOf(traceOf(w), 64);
    ASSERT_GT(t.sideSize(), 0u);
    std::string payload;
    encodeTrace(t, payload);
    store::storeLE(payload.data() + effAddrAt(t, 0), invalidAddr);
    store::storeLE(payload.data() + memProdAt(t, 0), invalidTrace);
    Trace back;
    EXPECT_FALSE(decodeTrace(payload, w.prog, back));
}

TEST(SpawnCodec, RoundTripsExactly)
{
    Workload w = smallWorkload();
    SpawnAnalysis sa(*w.module, w.prog);
    std::string payload;
    encodeSpawnPoints(sa.points(), payload);
    std::vector<SpawnPoint> back;
    ASSERT_TRUE(decodeSpawnPoints(payload, back));
    expectSamePoints(sa.points(), back);
}

// --- Store round-trips.

TEST_F(StoreTest, TraceRoundTripsThroughStore)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);

    ArtifactStore store(_root);
    EXPECT_FALSE(store.loadTrace("twolf", 0.02, w.prog));
    EXPECT_EQ(store.misses(), 1);
    ASSERT_TRUE(store.saveTrace("twolf", 0.02, w.prog, t));
    auto back = store.loadTrace("twolf", 0.02, w.prog);
    ASSERT_TRUE(back);
    EXPECT_EQ(store.hits(), 1);
    expectSameTrace(t, *back);

    // Wrong scale, wrong name: misses, not collisions.
    EXPECT_FALSE(store.loadTrace("twolf", 0.021, w.prog));
    EXPECT_FALSE(store.loadTrace("twolf2", 0.02, w.prog));
}

TEST_F(StoreTest, ProgramContentChangesTheKey)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);
    ArtifactStore store(_root);
    ASSERT_TRUE(store.saveTrace("twolf", 0.02, w.prog, t));

    // A workload whose program content differs (scale 0.1 emits a
    // different trip-count immediate) must miss even when queried
    // under the exact same (name, scale) key — the content hash is
    // what protects renamed or edited workloads.
    Workload w2 = buildWorkload("twolf", 0.1);
    ASSERT_NE(w.prog.contentHash(), w2.prog.contentHash());
    EXPECT_FALSE(store.loadTrace("twolf", 0.02, w2.prog));
}

TEST_F(StoreTest, AnalysisAndHintsRoundTrip)
{
    Workload w = smallWorkload();
    SpawnAnalysis sa(*w.module, w.prog);
    SpawnPolicy pol = SpawnPolicy::postdoms();
    HintTable ht(sa, pol);

    ArtifactStore store(_root);
    ASSERT_TRUE(
        store.saveAnalysisPoints("twolf", 0.02, w.prog, sa.points()));
    ASSERT_TRUE(store.saveHintPoints("twolf", 0.02, w.prog,
                                     pol.kindMask, ht.points()));

    auto pts = store.loadAnalysisPoints("twolf", 0.02, w.prog);
    ASSERT_TRUE(pts);
    expectSamePoints(sa.points(), *pts);
    // Rehydrated analysis preserves the census.
    SpawnAnalysis sa2(std::move(*pts));
    for (int k = 0; k < numSpawnKinds; ++k)
        EXPECT_EQ(sa.census().byKind[k], sa2.census().byKind[k]);

    auto hp = store.loadHintPoints("twolf", 0.02, w.prog,
                                   pol.kindMask);
    ASSERT_TRUE(hp);
    HintTable ht2(*hp);
    ASSERT_EQ(ht.size(), ht2.size());
    expectSamePoints(ht.points(), ht2.points());
    // A different policy mask is a different key.
    EXPECT_FALSE(store.loadHintPoints(
        "twolf", 0.02, w.prog, SpawnPolicy::loop().kindMask));
}

// --- Validation: every broken container is a miss, never a crash.

TEST_F(StoreTest, CorruptTruncatedAndVersionSkewAreMisses)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);
    ArtifactStore store(_root);
    ASSERT_TRUE(store.saveTrace("twolf", 0.02, w.prog, t));

    auto entries = store.entries();
    ASSERT_EQ(entries.size(), 1u);
    const fs::path file = entries[0].path;
    std::string pristine;
    {
        std::ifstream in(file, std::ios::binary);
        pristine.assign(std::istreambuf_iterator<char>(in), {});
    }

    auto rewrite = [&](const std::string &bytes) {
        std::ofstream out(file,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    // Flipped payload byte: checksum mismatch.
    std::string corrupt = pristine;
    corrupt[corrupt.size() - 5] ^= 0x40;
    rewrite(corrupt);
    EXPECT_FALSE(store.loadTrace("twolf", 0.02, w.prog));

    // Truncation: header says more payload than the file holds.
    rewrite(pristine.substr(0, pristine.size() / 2));
    EXPECT_FALSE(store.loadTrace("twolf", 0.02, w.prog));

    // Version skew: bump the u32 after the 8-byte magic.
    std::string skew = pristine;
    skew[8] = char(store::formatVersion + 1);
    rewrite(skew);
    EXPECT_FALSE(store.loadTrace("twolf", 0.02, w.prog));

    // Garbage and empty files.
    rewrite("not a container at all");
    EXPECT_FALSE(store.loadTrace("twolf", 0.02, w.prog));
    rewrite("");
    EXPECT_FALSE(store.loadTrace("twolf", 0.02, w.prog));

    // Restored pristine bytes hit again.
    rewrite(pristine);
    EXPECT_TRUE(store.loadTrace("twolf", 0.02, w.prog));
}

TEST_F(StoreTest, EveryByteFlipIsAMiss)
{
    // A small entry: the first records of a real trace, so every
    // producer stays inside it.
    Workload w = smallWorkload();
    const Trace t = prefixOf(traceOf(w), 16);
    ArtifactStore store(_root);
    ASSERT_TRUE(store.saveTrace("twolf", 0.02, w.prog, t));
    const fs::path file = store.entries().at(0).path;
    const std::string pristine = readBytes(file);

    // Header, key and payload: each flipped byte is a miss, and the
    // rebuild that follows writes the pristine entry back.
    for (size_t at = 0; at < pristine.size(); ++at) {
        for (char flip : {'\x01', '\x80'}) {
            std::string bad = pristine;
            bad[at] ^= flip;
            writeBytes(file, bad);
            ASSERT_FALSE(store.loadTrace("twolf", 0.02, w.prog))
                << "byte " << at << " ^ " << int(std::uint8_t(flip));
            ASSERT_TRUE(store.saveTrace("twolf", 0.02, w.prog, t));
            ASSERT_EQ(readBytes(file), pristine) << "byte " << at;
        }
    }
    auto back = store.loadTrace("twolf", 0.02, w.prog);
    ASSERT_TRUE(back);
    expectSameTrace(t, *back);
    EXPECT_EQ(store.misses(), 2 * int(pristine.size()));
    EXPECT_EQ(store.hits(), 1);
}

TEST_F(StoreTest, VersionOneEntryIsAMiss)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);
    ArtifactStore store(_root);
    ASSERT_TRUE(store.saveTrace("twolf", 0.02, w.prog, t));
    const fs::path file = store.entries().at(0).path;
    const std::string pristine = readBytes(file);

    // The same key and payload under a version 1 header, whose
    // checksum was FNV-1a over the payload, and under a version 2
    // header, whose checksum was the word hash.
    constexpr size_t headerBytes = 42;
    const size_t keyLen =
        store::loadLE<std::uint16_t>(pristine.data() + 40);
    const std::string key = pristine.substr(headerBytes, keyLen);
    const std::string payload = pristine.substr(headerBytes + keyLen);
    for (auto [version, checksum] :
         {std::pair{1u, store::fnv1a(payload)},
          std::pair{2u, store::wordHash(payload)}}) {
        std::string old = pristine.substr(0, headerBytes);
        store::storeLE<std::uint32_t>(old.data() + 8, version);
        store::storeLE<std::uint64_t>(old.data() + 32, checksum);
        writeBytes(file, old + key + payload);
        EXPECT_FALSE(store.loadTrace("twolf", 0.02, w.prog)) << version;
    }

    writeBytes(file, pristine);
    EXPECT_TRUE(store.loadTrace("twolf", 0.02, w.prog));
}

/** A death-test suite, which gtest runs before the suites that start
 *  threads. */
using StoreDeathTest = StoreTest;

TEST_F(StoreDeathTest, AShortFinalWriteFailsTheSave)
{
    // A hint table is small: a buffered stream would write all of it
    // at close, where a failed flush goes unreported.
    Workload w = smallWorkload();
    SpawnAnalysis sa(*w.module, w.prog);
    const SpawnPolicy pol = SpawnPolicy::postdoms();
    const HintTable ht(sa, pol);
    const auto save = [&](ArtifactStore &store) {
        return store.saveHintPoints("twolf", 0.02, w.prog, pol.kindMask,
                                    ht.points());
    };
    rlim_t entryBytes = 0;
    {
        ArtifactStore store(_root);
        ASSERT_TRUE(save(store));
        entryBytes = store.entries().at(0).fileBytes;
    }
    fs::remove_all(_root);

    // In the child only: files end one byte short of the entry, and
    // a write past the limit fails instead of raising SIGXFSZ.
    const auto child = [&] {
        const rlimit limit{entryBytes - 1, entryBytes - 1};
        if (::signal(SIGXFSZ, SIG_IGN) == SIG_ERR ||
            ::setrlimit(RLIMIT_FSIZE, &limit) != 0)
            return 2;
        ArtifactStore store(_root);
        const bool saved = save(store);
        return !saved && store.saveFailures() == 1 && fs::is_empty(_root)
            ? 0
            : 1;
    };
    EXPECT_EXIT(std::exit(child()), ::testing::ExitedWithCode(0), "");
}

TEST_F(StoreTest, SweepCacheRebuildsOverACorruptStore)
{
    // Cold pass populates the store.
    auto seed = std::make_shared<ArtifactStore>(_root);
    driver::SweepCache cold;
    cold.attachStore(seed);
    auto ref = cold.traced("twolf", 0.02);
    EXPECT_EQ(cold.tracesBuilt(), 1);

    // Vandalize every entry.
    for (const auto &e : seed->entries()) {
        std::ofstream out(e.path,
                          std::ios::binary | std::ios::trunc);
        out << "vandalized";
    }

    // A fresh process-equivalent must rebuild and agree.
    driver::SweepCache warm;
    warm.attachStore(std::make_shared<ArtifactStore>(_root));
    auto re = warm.traced("twolf", 0.02);
    EXPECT_EQ(warm.tracesBuilt(), 1);
    expectSameTrace(ref->trace, re->trace);
}

// --- Concurrency: same-key writers race benignly.

TEST_F(StoreTest, ConcurrentSameKeyWritersLeaveOneValidEntry)
{
    Workload w = smallWorkload();
    Trace t = traceOf(w);

    constexpr int kWriters = 8;
    std::vector<std::thread> pool;
    for (int i = 0; i < kWriters; ++i) {
        pool.emplace_back([&] {
            ArtifactStore store(_root);
            store.saveTrace("twolf", 0.02, w.prog, t);
        });
    }
    for (auto &th : pool)
        th.join();

    ArtifactStore store(_root);
    auto entries = store.entries();
    ASSERT_EQ(entries.size(), 1u);
    auto back = store.loadTrace("twolf", 0.02, w.prog);
    ASSERT_TRUE(back);
    expectSameTrace(t, *back);
}

// --- Cold vs warm: a second pipeline over a warm store performs
// zero functional simulations and reproduces every artifact.

TEST_F(StoreTest, WarmPipelineBuildsNothingAndMatchesCold)
{
    const std::vector<std::string> names = {"twolf", "mcf"};
    const std::vector<std::string> labels = {"loop", "postdoms"};

    auto runAll = [&](driver::SweepCache &cache) {
        std::vector<TimingResult> out;
        for (const auto &n : names) {
            Session s = Session::open(
                n, 0.02,
                std::shared_ptr<driver::SweepCache>(
                    &cache, [](driver::SweepCache *) {}));
            for (const auto &label : labels)
                out.push_back(s.simulate(*driver::runByLabel(label)));
        }
        return out;
    };

    driver::SweepCache cold;
    cold.attachStore(std::make_shared<ArtifactStore>(_root));
    auto coldRes = runAll(cold);
    EXPECT_EQ(cold.tracesBuilt(), int(names.size()));
    EXPECT_EQ(cold.analysesBuilt(), int(names.size()));

    driver::SweepCache warm;
    warm.attachStore(std::make_shared<ArtifactStore>(_root));
    auto warmRes = runAll(warm);
    EXPECT_EQ(warm.tracesBuilt(), 0);
    EXPECT_EQ(warm.analysesBuilt(), 0);
    EXPECT_EQ(warm.hintTablesBuilt(), 0);

    ASSERT_EQ(coldRes.size(), warmRes.size());
    for (size_t i = 0; i < coldRes.size(); ++i) {
        EXPECT_EQ(coldRes[i].cycles, warmRes[i].cycles) << i;
        EXPECT_EQ(coldRes[i].instrs, warmRes[i].instrs) << i;
        EXPECT_EQ(coldRes[i].spawns, warmRes[i].spawns) << i;
        EXPECT_EQ(coldRes[i].violations, warmRes[i].violations)
            << i;
    }
}

// --- Environment: only PF_CACHE_DIR naming a directory opts in.

TEST(StoreEnv, OffDisablesTheStore)
{
    ::unsetenv("PF_CACHE_DIR");
    EXPECT_EQ(ArtifactStore::openFromEnv(), nullptr);
    ::setenv("PF_CACHE_DIR", "", 1);
    EXPECT_EQ(ArtifactStore::openFromEnv(), nullptr);
    ::setenv("PF_CACHE_DIR", "off", 1);
    EXPECT_EQ(ArtifactStore::openFromEnv(), nullptr);

    auto dir = fs::temp_directory_path() / "pf-store-test-env";
    fs::remove_all(dir);
    ::setenv("PF_CACHE_DIR", dir.string().c_str(), 1);
    auto store = ArtifactStore::openFromEnv();
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->root(), dir);
    ::setenv("PF_CACHE_DIR", "off", 1);
    fs::remove_all(dir);
}

TEST(StoreEnv, OnlySweepRunnerOpensTheStore)
{
    ::unsetenv("PF_CACHE_DIR");
    EXPECT_EQ(driver::SweepRunner(1).cache().store(), nullptr);

    auto dir = fs::temp_directory_path() / "pf-store-test-session";
    fs::remove_all(dir);
    ::setenv("PF_CACHE_DIR", dir.string().c_str(), 1);
    Session s = Session::open("twolf", 0.02);
    s.trace();
    s.analysis();
    s.hints(SpawnPolicy::postdoms());
    EXPECT_EQ(s.cache()->store(), nullptr);
    EXPECT_FALSE(fs::exists(dir));

    driver::SweepRunner runner(1);
    ASSERT_NE(runner.cache().store(), nullptr);
    EXPECT_EQ(runner.cache().store()->root(), dir);
    ::setenv("PF_CACHE_DIR", "off", 1);
    fs::remove_all(dir);
}

} // namespace
} // namespace polyflow
