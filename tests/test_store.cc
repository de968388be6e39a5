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

#include <algorithm>
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
        ASSERT_EQ(a.instrs[i].img(), b.instrs[i].img()) << "at " << i;
        ASSERT_EQ(a.instrs[i].taken(), b.instrs[i].taken()) << "at " << i;
        ASSERT_EQ(a.effAddr(i), b.effAddr(i)) << "at " << i;
        ASSERT_EQ(a.prod(i, 0), b.prod(i, 0)) << "at " << i;
        ASSERT_EQ(a.prod(i, 1), b.prod(i, 1)) << "at " << i;
        ASSERT_EQ(a.memProd(i), b.memProd(i)) << "at " << i;
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
              "eaf6c125c0fb5dab6e47f38a2356b088"
              "906c7bab23e7ebd494d109126ec88a70");
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
    Trace evil;
    evil.prog = &w.prog;
    evil.append(static_cast<ImageIdx>(w.prog.size()),
                t.instrs.front().taken(), t.prod(0, 0), t.prod(0, 1),
                t.effAddr(0), t.memProd(0));
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
        TraceIdx p[3] = {t.prod(0, 0), t.prod(0, 1), t.memProd(0)};
        p[field] = 0;
        Trace evil;
        evil.prog = &w.prog;
        evil.append(d.img(), d.taken(), p[0], p[1], t.effAddr(0), p[2]);
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
        evil.append(d.img(), d.taken(), t.prod(k, 0), t.prod(k, 1),
                    t.effAddr(k), k == i ? 0 : t.memProd(k));
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
        t.append(d.img(), d.taken(), full.prod(i, 0), full.prod(i, 1),
                 full.effAddr(i), full.memProd(i));
    }
    return t;
}

/** @name Byte offsets into a trace payload (isa/trace_io.hh) @{ */
constexpr size_t headBytes = 24;
size_t
backAt(TraceIdx i, int k)
{
    return headBytes + 8 * size_t(i) + 4 + 2 * size_t(k);
}
size_t
farAt(const Trace &t, size_t j)
{
    return headBytes + 8 * t.size() + 12 * j;
}
size_t
bitsAt(const Trace &t, size_t word)
{
    return farAt(t, t.farSize()) + 8 * word;
}
size_t
effAddrAt(const Trace &t, size_t slot)
{
    return bitsAt(t, (t.size() + 63) / 64) + 8 * slot;
}
size_t
memProdAt(const Trace &t, size_t slot)
{
    return effAddrAt(t, t.sideSize()) + 4 * slot;
}
/** @} */

/** Records of @p t with a side slot, in order. */
std::vector<TraceIdx>
sideRecords(const Trace &t)
{
    std::vector<TraceIdx> out;
    for (TraceIdx i = 0; i < t.size(); ++i) {
        if (t.side(i) != Trace::noSide)
            out.push_back(i);
    }
    return out;
}

/** Flip bit @p i of the side bitmap in @p payload of @p t. */
void
flipSideBit(std::string &payload, const Trace &t, TraceIdx i)
{
    char *word = payload.data() + bitsAt(t, i / 64);
    store::storeLE(word, store::loadLE<std::uint64_t>(word) ^
                       (std::uint64_t(1) << (i % 64)));
}

/** What one append() was passed. */
struct Appended
{
    bool taken = false;
    TraceIdx prod[2] = {invalidTrace, invalidTrace};
    Addr effAddr = invalidAddr;
    TraceIdx memProd = invalidTrace;
};

/** First image of @p prog that is a load. */
ImageIdx
loadImage(const LinkedProgram &prog)
{
    ImageIdx img = 0;
    while (!prog.image()[img].instr.isLoad())
        ++img;
    return img;
}

/**
 * 70,010 loads of one static load, with producers 1, 65,534 (the
 * farthest a back-distance holds), 65,535 and 70,000 back, two far
 * links on one record, and side slots at positions 0, 63, 64, 127,
 * 128 (a memory producer only) and the last. The far table holds
 * (65535, 0), (70000, 0), (70000, 1) and (70001, 1).
 */
std::vector<Appended>
farAndSideRecords()
{
    std::vector<Appended> recs(70010);
    for (TraceIdx i = 0; i < recs.size(); ++i)
        recs[i].taken = i % 3 == 0;
    recs[1].prod[0] = 0;
    recs[65534].prod[0] = 0;
    recs[65535].prod[0] = 0;
    recs[65535].prod[1] = 1;
    recs[70000].prod[0] = 0;
    recs[70000].prod[1] = 70000 - 65535;
    recs[70001].prod[0] = 70000;
    recs[70001].prod[1] = 70001 - 65535;
    for (TraceIdx i : {0u, 63u, 64u, 127u, 128u, 70009u}) {
        recs[i].effAddr = 0x1000 + 8 * Addr(i);
        if (i != 0)
            recs[i].memProd = 0;
    }
    recs[128].effAddr = invalidAddr;
    return recs;
}

Trace
traceOf(const LinkedProgram &prog, ImageIdx img,
        const std::vector<Appended> &recs)
{
    Trace t;
    t.prog = &prog;
    for (const Appended &a : recs)
        t.append(img, a.taken, a.prod[0], a.prod[1], a.effAddr, a.memProd);
    return t;
}

/** @p t reads back exactly @p recs, each of static image @p img. */
void
expectReadsBack(const Trace &t, ImageIdx img,
                const std::vector<Appended> &recs)
{
    ASSERT_EQ(t.size(), recs.size());
    std::uint32_t slots = 0;
    for (TraceIdx i = 0; i < t.size(); ++i) {
        const Appended &a = recs[i];
        ASSERT_EQ(t.instrs[i].img(), img) << "at " << i;
        ASSERT_EQ(t.instrs[i].taken(), a.taken) << "at " << i;
        ASSERT_EQ(t.prod(i, 0), a.prod[0]) << "at " << i;
        ASSERT_EQ(t.prod(i, 1), a.prod[1]) << "at " << i;
        ASSERT_EQ(t.effAddr(i), a.effAddr) << "at " << i;
        ASSERT_EQ(t.memProd(i), a.memProd) << "at " << i;
        const bool carries =
            a.effAddr != invalidAddr || a.memProd != invalidTrace;
        ASSERT_EQ(t.side(i), carries ? slots++ : Trace::noSide) << i;
    }
    EXPECT_EQ(t.sideSize(), slots);
}

TEST(TraceCodec, FarProducersAndSideRanksRoundTrip)
{
    const Workload w = smallWorkload();
    const ImageIdx img = loadImage(w.prog);
    const std::vector<Appended> recs = farAndSideRecords();
    const Trace t = traceOf(w.prog, img, recs);
    EXPECT_EQ(t.farSize(), 4u);
    EXPECT_EQ(t.sideSize(), 6u);
    expectReadsBack(t, img, recs);

    std::string payload;
    encodeTrace(t, payload);
    Trace back;
    ASSERT_TRUE(decodeTrace(payload, w.prog, back));
    EXPECT_EQ(back.farSize(), 4u);
    expectReadsBack(back, img, recs);
}

TEST(TraceCodec, EmptyArraysRoundTrip)
{
    // No records at all; then records with neither a side slot nor
    // a far producer.
    const Workload w = smallWorkload();
    const ImageIdx img = loadImage(w.prog);
    for (size_t n : {0, 3}) {
        std::vector<Appended> recs(n);
        if (n > 1)
            recs[1].prod[0] = 0;
        const Trace t = traceOf(w.prog, img, recs);
        ASSERT_EQ(t.sideSize(), 0u);
        ASSERT_EQ(t.farSize(), 0u);
        std::string payload;
        encodeTrace(t, payload);
        EXPECT_EQ(payload.size(), headBytes + 8 * n + (n ? 8 : 0)) << n;
        Trace back;
        ASSERT_TRUE(decodeTrace(payload, w.prog, back)) << n;
        expectReadsBack(back, img, recs);
    }
}

/** farAndSideRecords()' payload, changed by @p patch, decodes to
 *  nothing. */
template <class Patch>
void
expectPatchRejected(Patch patch)
{
    const Workload w = smallWorkload();
    const Trace t = traceOf(w.prog, loadImage(w.prog), farAndSideRecords());
    std::string payload;
    encodeTrace(t, payload);
    Trace back;
    ASSERT_TRUE(decodeTrace(payload, w.prog, back));
    patch(t, payload);
    EXPECT_FALSE(decodeTrace(payload, w.prog, back));
}

TEST(TraceCodec, RejectsAFarEntryOutOfOrder)
{
    // (70000, 0) and (70000, 1) trade places.
    expectPatchRejected([](const Trace &t, std::string &payload) {
        std::swap_ranges(payload.begin() + farAt(t, 1),
                         payload.begin() + farAt(t, 2),
                         payload.begin() + farAt(t, 2));
    });
}

TEST(TraceCodec, RejectsAFarProducerNotOlder)
{
    // (65535, 0) names its own record.
    expectPatchRejected([](const Trace &t, std::string &payload) {
        store::storeLE(payload.data() + farAt(t, 0) + 8, TraceIdx(65535));
    });
}

TEST(TraceCodec, RejectsABackDistanceBeforePositionZero)
{
    expectPatchRejected([](const Trace &, std::string &payload) {
        store::storeLE(payload.data() + backAt(1, 0), std::uint16_t(2));
    });
}

TEST(TraceCodec, RejectsAFarLinkNoEntryAnswers)
{
    // The last record, after every far link, asks the far table.
    expectPatchRejected([](const Trace &t, std::string &payload) {
        store::storeLE(payload.data() +
                           backAt(static_cast<TraceIdx>(t.size() - 1), 0),
                       DynInstr::farBack);
    });
}

TEST(TraceCodec, RejectsAFarEntryNoRecordNames)
{
    // The last far link, (70001, 1), becomes a near one.
    expectPatchRejected([](const Trace &, std::string &payload) {
        store::storeLE(payload.data() + backAt(70001, 1), std::uint16_t(1));
    });
}

TEST(TraceCodec, RejectsMoreSideBitsThanSlots)
{
    // A record without a slot claims the last one; the last record,
    // which holds it, then finds none left.
    expectPatchRejected([](const Trace &t, std::string &payload) {
        flipSideBit(payload, t, static_cast<TraceIdx>(t.size() - 2));
    });
}

TEST(TraceCodec, RejectsASideBitPastTheLastRecord)
{
    expectPatchRejected([](const Trace &t, std::string &payload) {
        ASSERT_NE(t.size() % 64, 0u);
        flipSideBit(payload, t, static_cast<TraceIdx>(t.size()));
    });
}

TEST(TraceCodec, RejectsAnOverClaimingHeader)
{
    Workload w = smallWorkload();
    const Trace t = prefixOf(traceOf(w), 64);
    std::string payload;
    encodeTrace(t, payload);
    Trace back;
    ASSERT_TRUE(decodeTrace(payload, w.prog, back));
    // Counts whose own array's byte size wraps around to the true
    // one: 2^61 more records, or 2^62 more slots or far entries,
    // claim 0 more bytes mod 2^64 there.
    for (auto [at, extra] : {std::pair{0, std::uint64_t(1) << 61},
                             std::pair{8, std::uint64_t(1) << 62},
                             std::pair{16, std::uint64_t(1) << 62}}) {
        std::string evil = payload;
        store::storeLE<std::uint64_t>(
            evil.data() + at,
            store::loadLE<std::uint64_t>(evil.data() + at) + extra);
        EXPECT_FALSE(decodeTrace(evil, w.prog, back)) << at;
    }
}

TEST(TraceCodec, RejectsASideSlotNoRecordNames)
{
    Workload w = smallWorkload();
    const Trace t = prefixOf(traceOf(w), 64);
    // The last record with a slot gives it up.
    const TraceIdx last = sideRecords(t).back();
    std::string payload;
    encodeTrace(t, payload);
    flipSideBit(payload, t, last);
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
