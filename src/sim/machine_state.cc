#include "sim/machine_state.hh"

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace polyflow::sim {

namespace {

/** @p config, once it has passed MachineConfig::validate(). The
 *  check runs before any member is built from the config, so a bad
 *  cache geometry is reported by field name, not by the cache. */
const MachineConfig &
validated(const MachineConfig &config)
{
    config.validate();
    return config;
}

/** The longest time from a cycle to a result it schedules: a load
 *  that misses both cache levels, the slowest ALU class, or a
 *  store's one cycle. */
std::int64_t
longestLatency(const MachineConfig &cfg)
{
    return std::max(
        {std::int64_t(1), std::int64_t(cfg.intLatency),
         std::int64_t(cfg.mulLatency), std::int64_t(cfg.divLatency),
         std::int64_t(cfg.loadLatency) + cfg.l1d.missLatency +
             cfg.l2.missLatency});
}

DecodedOp
decode(const Instruction &in, const MachineConfig &cfg)
{
    DecodedOp op;
    op.nsrc = static_cast<std::uint8_t>(in.srcRegs(op.src));
    op.cls = in.cls();
    switch (opInfo(in.op).fu) {
      case FuClass::Int: op.latency = cfg.intLatency; break;
      case FuClass::Mul: op.latency = cfg.mulLatency; break;
      case FuClass::Div: op.latency = cfg.divLatency; break;
    }
    return op;
}

FetchOp
decodeFetch(const LinkedInstr &li, const MachineConfig &cfg,
            SpawnSource *source)
{
    FetchOp f;
    f.pc = li.addr;
    f.line = li.addr >> std::countr_zero(unsigned(cfg.l1i.lineBytes));
    f.cls = li.instr.cls();
    if (!source)
        return f;
    if (!source->fixedAt(li)) {
        f.spawn = SpawnAt::Ask;
    } else if (auto hint = source->query(li)) {
        f.spawn = SpawnAt::Fixed;
        f.hint = *hint;
    }
    return f;
}

/** @p trace, once it has records and the program they index. Like
 *  validated(), the check runs before any member is built from the
 *  trace. */
const Trace &
checkedTrace(const Trace &trace)
{
    if (trace.size() == 0)
        throw std::runtime_error("TimingSim: empty trace");
    if (!trace.prog)
        throw std::runtime_error("TimingSim: the trace has no program");
    return trace;
}

} // namespace

std::uint64_t
MachineState::cycleLimitFor(const MachineConfig &cfg,
                            std::size_t instrs)
{
    const std::int64_t longest = longestLatency(cfg);
    constexpr std::uint64_t base = 1'000'000, perInstr = 200;
    constexpr std::uint64_t cycleMax =
        std::numeric_limits<std::uint32_t>::max();
    const std::uint64_t reach = base + std::uint64_t(longest);
    if (reach < cycleMax && instrs <= (cycleMax - reach) / perInstr)
        return perInstr * instrs + base;
    throw std::runtime_error(
        "TimingSim: a trace of " + std::to_string(instrs) +
        " instructions is too long: its cycle limit (200 per "
        "instruction + 1000000) plus a " + std::to_string(longest) +
        "-cycle latency does not fit in 32 bits");
}

MachineState::MachineState(const MachineConfig &config,
                           const Trace &trace_, SpawnSource *source_,
                           const TraceIndex *sharedIndex)
    : cfg(validated(config)), trace(&checkedTrace(trace_)),
      source(source_), cycleLimit(cycleLimitFor(config, trace_.size())),
      sched(config.schedEntries), divert(config.divertEntries),
      hier(config), depPred(trace_.prog->size())
{
    istate.resize(trace_.size());
    waiterHead.assign(trace_.size(), noSlot);
    waiterNext.assign(sched.slots.size() + divert.slots.size(), noSlot);
    // Every result is scheduled at most longestLatency cycles ahead,
    // so no two pending completion cycles share a bucket. The cap
    // only binds for latencies no figure uses; drainWheel wakes
    // only the due entries of a shared bucket.
    constexpr std::uint64_t maxBuckets = 1 << 16;
    wheel.assign(std::min(std::bit_ceil(std::uint64_t(
                              longestLatency(cfg)) + 1),
                          maxBuckets),
                 noSlot);
    ops.reserve(trace_.prog->size());
    fetchOps.reserve(trace_.prog->size());
    for (const LinkedInstr &li : trace_.prog->image()) {
        ops.push_back(decode(li.instr, cfg));
        fetchOps.push_back(decodeFetch(li, cfg, source));
    }
    sourceTrains = source && source->trains();

    if (source) {
        if (sharedIndex) {
            index = sharedIndex;
        } else {
            ownedIndex = std::make_unique<TraceIndex>(trace_);
            index = ownedIndex.get();
        }
        feedback.resize(trace_.prog->size());
    }

    Task t0;
    t0.begin = 0;
    t0.end = static_cast<TraceIdx>(trace_.size());
    t0.ras = ReturnAddressStack(config.returnStackEntries);
    // Reserve so that spawning inside the fetch stage never
    // reallocates while a Task reference is live.
    tasks.reserve(size_t(config.numTasks) + 1);
    tasks.push_back(std::move(t0));
}

void
MachineState::wakeRenamed(TraceIdx p)
{
    // Only divert entries wait for a rename; the rest stay.
    Slot keep = noSlot;
    for (Slot n = waiterHead[p]; n != noSlot;) {
        const Slot next = waiterNext[n];
        if (blockerOf(n).until == Await::Rename) {
            wake(n);
        } else {
            waiterNext[n] = keep;
            keep = n;
        }
        n = next;
    }
    waiterHead[p] = keep;
}

void
MachineState::wakeIssued(TraceIdx p)
{
    const bool resultReady = istate[p].cycle <= now;
    for (Slot n = std::exchange(waiterHead[p], noSlot); n != noSlot;) {
        const Slot next = waiterNext[n];
        if (blockerOf(n).until != Await::Result || resultReady)
            wake(n);
        else
            park(n);  // to the wheel: p has issued
        n = next;
    }
}

void
MachineState::drainWheel()
{
    // Normally one bucket, the one due now. A caller that moved the
    // clock by more than the wheel's size gets every bucket once.
    const std::uint64_t mask = wheel.size() - 1;
    const std::uint64_t steps =
        std::min<std::uint64_t>(now - wheelDrained, wheel.size());
    for (std::uint64_t c = now + 1 - steps; c <= now; ++c) {
        Slot &head = wheel[c & mask];
        // A bucket lists its entries newest first. Reverse it so they
        // wake in the order they were parked, which is mostly the
        // scan order the ready list wants.
        Slot parked = noSlot;
        for (Slot n = std::exchange(head, noSlot); n != noSlot;) {
            const Slot next = waiterNext[n];
            waiterNext[n] = parked;
            parked = n;
            n = next;
        }
        for (Slot n = parked; n != noSlot;) {
            const Slot next = waiterNext[n];
            if (istate[blockerOf(n).producer].cycle <= now) {
                wake(n);
            } else {
                waiterNext[n] = head;
                head = n;
            }
            n = next;
        }
    }
    wheelDrained = now;
}

void
MachineState::purgeSquashed()
{
    const Slot schedSlots = Slot(sched.slots.size());
    auto live = [&](Slot n) {
        if (n < schedSlots)
            return istate[sched.slots[n].idx].stage == InstrStage::InSched;
        return istate[divert.slots[n - schedSlots].idx].stage ==
            InstrStage::Diverted;
    };
    auto filter = [&](Slot &head) {
        Slot keep = noSlot;
        for (Slot n = head; n != noSlot;) {
            const Slot next = waiterNext[n];
            if (live(n)) {
                waiterNext[n] = keep;
                keep = n;
            }
            n = next;
        }
        head = keep;
    };
    // A parked node is on its blocker's waiter list or in the wheel,
    // so filtering the lists every entry's blocker names, and every
    // bucket, reaches each squashed node.
    const Slot nodes = Slot(waiterNext.size());
    for (Slot n = 0; n < nodes; ++n) {
        const bool used = n < schedSlots
            ? sched.slots[n].idx != invalidTrace
            : divert.slots[n - schedSlots].idx != invalidTrace;
        const Blocker b = blockerOf(n);
        if (used && b.producer != invalidTrace)
            filter(waiterHead[b.producer]);
    }
    for (Slot &head : wheel)
        filter(head);
    sched.purge(live);
    divert.purge([&](Slot d) { return live(divertNode(d)); });
}

} // namespace polyflow::sim
