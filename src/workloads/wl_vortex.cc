/**
 * @file
 * vortex: OO-database flavour — lookups, validations and updates
 * layered across many small functions whose combined footprint far
 * exceeds the 8 KB L1 I-cache. Procedure fall-through spawns start
 * fetching the caller's continuation (and its I-cache misses) early,
 * which is where the real vortex gets its headroom.
 */

#include <algorithm>

#include "workloads/wl_common.hh"

namespace polyflow {

namespace {

// Record layout: key, f0, f1, f2 (8 bytes each).
constexpr size_t recBytes = 32;

/** Emit hash(a0 = key) -> a0: a short mixing function. */
void
emitHash(Function &fn)
{
    FunctionBuilder b(fn);
    using namespace reg;
    b.li(t0, 0x9e3779b97f4a7c15);
    b.mul(a0, a0, t0);
    b.srli(t1, a0, 29);
    b.xor_(a0, a0, t1);
    b.andi(a0, a0, 63);
    b.ret();
}

/**
 * Emit a field validator: check_field<i>(a0 = record) -> a0 flag,
 * with filler arithmetic to give the function real I-footprint.
 */
void
emitCheckField(Function &fn, int field, WlRng &rng)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId fixup = b.newBlock("fixup");
    BlockId out = b.newBlock("out");
    b.ld(t0, a0, 8 + 8 * field);
    // Field-check mixing: four parallel accumulator lanes give the
    // function real instruction footprint without a serial chain.
    b.addi(t1, t0, 0x111);
    b.xori(t2, t0, 0x9e3);
    for (int i = 0; i < 100; ++i) {
        RegId lane = RegId(reg::t0 + i % 3);
        b.xori(t5, lane, std::int64_t(rng.range(4096)));
        b.slli(t6, t5, (i % 5) + 1);
        b.add(lane, lane, t6);
    }
    b.xor_(t0, t0, t1);
    b.xor_(t0, t0, t2);
    b.andi(t4, t0, 7);
    b.bne(t4, zero, out);    // usually fine (~87%)
    b.setBlock(fixup);
    b.addi(t0, t0, 5);
    b.sd(t0, a0, 8 + 8 * field);
    b.setBlock(out);
    b.mov(a0, t0);
    b.ret();
}

/** Emit validate(a0 = record): calls every field validator. */
void
emitValidate(Function &fn, const std::vector<FuncId> &checkers)
{
    FunctionBuilder b(fn);
    using namespace reg;
    b.addi(sp, sp, -32);
    b.sd(ra, sp, 0);
    b.sd(s0, sp, 8);
    b.sd(s1, sp, 16);
    b.mov(s0, a0);
    b.li(s1, 0);
    for (FuncId c : checkers) {
        b.mov(a0, s0);
        b.call(c);
        b.add(s1, s1, a0);
    }
    b.sd(s1, s0, 8);
    b.ld(ra, sp, 0);
    b.ld(s0, sp, 8);
    b.ld(s1, sp, 16);
    b.addi(sp, sp, 32);
    b.ret();
}

/**
 * Emit lookup(a0 = key, a1 = buckets, a2 = records) -> a0 record
 * ptr. Hashes the key (touching the bucket directory), then probes
 * the 4-record group containing the key; the probe loop runs 1-4
 * iterations.
 */
void
emitLookup(Function &fn, FuncId hashId)
{
    FunctionBuilder b(fn);
    using namespace reg;
    BlockId walk = b.newBlock("walk");
    BlockId next = b.newBlock("next");
    BlockId miss = b.newBlock("miss");
    BlockId found = b.newBlock("found");
    b.addi(sp, sp, -16);
    b.sd(ra, sp, 0);
    b.mov(t8, a0);          // key survives the call
    b.call(hashId);
    b.slli(t0, a0, 3);
    b.add(t0, t0, a1);
    b.ld(t5, t0, 0);        // touch the bucket directory
    b.andi(t1, t8, 124);    // probe start: key's 4-record group
    b.add(t1, t1, t5);
    b.sub(t1, t1, t5);      // (keep the directory value live)
    b.li(t6, 4);            // probes left
    b.jump(walk);

    b.setBlock(walk);
    b.slli(t2, t1, 5);      // * recBytes
    b.add(t2, t2, a2);
    b.ld(t3, t2, 0);        // record key
    b.beq(t3, t8, found);
    b.setBlock(next);
    b.addi(t1, t1, 1);
    b.addi(t6, t6, -1);
    b.bne(t6, zero, walk);
    b.setBlock(miss);
    b.li(t2, 0);
    b.setBlock(found);
    b.mov(a0, t2);
    b.ld(ra, sp, 0);
    b.addi(sp, sp, 16);
    b.ret();
}

/** Emit update(a0 = record): rewrite two fields with filler math. */
void
emitUpdate(Function &fn, WlRng &rng)
{
    FunctionBuilder b(fn);
    using namespace reg;
    b.ld(t0, a0, 16);
    b.addi(t1, t0, 0x2f);
    b.xori(t2, t0, 0x51);
    for (int i = 0; i < 60; ++i) {
        RegId lane = RegId(reg::t0 + i % 3);
        b.addi(t5, lane, std::int64_t(rng.range(999)));
        b.slli(t5, t5, (i % 3) + 1);
        b.xor_(lane, lane, t5);
    }
    b.xor_(t0, t0, t1);
    b.xor_(t0, t0, t2);
    b.sd(t0, a0, 16);
    b.ld(t3, a0, 24);
    b.add(t3, t3, t0);
    b.sd(t3, a0, 24);
    b.ret();
}

} // namespace

Workload
buildVortex(double scale)
{
    auto mod = std::make_unique<Module>("vortex");
    WlRng rng(0xd07e);

    int numRecords = 128;
    int numKeys = 48;
    int iters = std::max(1, int(3 * scale));

    // Records keyed 0..numRecords-1 (hash walk finds them quickly).
    Addr records = mod->allocData("records", numRecords * recBytes);
    {
        std::vector<std::uint8_t> bytes(numRecords * recBytes, 0);
        for (int r = 0; r < numRecords; ++r) {
            size_t off = size_t(r) * recBytes;
            putWord(bytes, off, r);
            putWord(bytes, off + 8, rng.next());
            putWord(bytes, off + 16, rng.next());
            putWord(bytes, off + 24, rng.next());
        }
        mod->setData(records, std::move(bytes));
    }
    // Buckets: hash value -> starting record index.
    Addr buckets = allocWords(*mod, "buckets", 64,
                              [&](size_t) { return rng.range(numRecords); });
    Addr keyList = allocRandomWords(*mod, "keys", numKeys, rng, 127);

    Function &hash = mod->createFunction("hash");
    emitHash(hash);
    std::vector<FuncId> checkers;
    for (int c = 0; c < 6; ++c) {
        Function &cf = mod->createFunction(
            "check_field" + std::to_string(c));
        emitCheckField(cf, c % 3, rng);
        checkers.push_back(cf.id());
    }
    Function &validate = mod->createFunction("validate");
    emitValidate(validate, checkers);
    Function &lookup = mod->createFunction("lookup");
    emitLookup(lookup, hash.id());
    Function &update = mod->createFunction("update");
    emitUpdate(update, rng);

    emitDriver(*mod, iters, [&](FunctionBuilder &b) {
        using namespace reg;
        BlockId inner = b.newBlock("inner");
        BlockId haveRec = b.newBlock("have_rec");
        BlockId innerLatch = b.newBlock("inner_latch");
        BlockId outerLatch = b.newBlock("outer_latch");
        b.li(s0, std::int64_t(keyList));
        b.li(s1, numKeys);
        b.jump(inner);

        b.setBlock(inner);
        b.ld(a0, s0, 0);
        b.li(a1, std::int64_t(buckets));
        b.li(a2, std::int64_t(records));
        b.call(lookup.id());
        b.beq(a0, zero, innerLatch);  // rare miss
        b.setBlock(haveRec);
        b.mov(s2, a0);
        b.call(validate.id());
        b.mov(a0, s2);
        b.call(update.id());
        b.setBlock(innerLatch);
        b.addi(s0, s0, 8);
        b.addi(s1, s1, -1);
        b.bne(s1, zero, inner);
        b.setBlock(outerLatch);
    });
    return finishWorkload(std::move(mod));
}

} // namespace polyflow
