/**
 * @file
 * Stage-isolation tests: drive individual pipeline-stage functions
 * (sim/stages.hh) on hand-built MachineState instances — no full-run
 * harness required — and the tests that TimingSim::runBatch equals
 * single runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "ir/builder.hh"
#include "polyflow.hh"
#include "queue_check.hh"
#include "sim/stages.hh"
#include "store/sha256.hh"

namespace polyflow {
namespace {

using qtest::divertEntries;
using qtest::queueInvariantViolation;
using qtest::schedEntries;
using qtest::seedSched;

/** Functional trace of a built module (keeps the program alive). */
struct Built
{
    Module mod{"t"};
    LinkedProgram prog;
    std::unique_ptr<FunctionalResult> fr;

    void
    finish()
    {
        prog = mod.link();
        FunctionalOptions opt;
        opt.recordTrace = true;
        fr = std::make_unique<FunctionalResult>(
            runFunctional(prog, opt));
    }
};

/** li t0, N; loop: addi t0, t0, -1; bne t0, zero, loop; halt.
 *  Trace: li, then N x (addi, bne), then halt. */
Built
countdownLoop(int n)
{
    Built b;
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        BlockId loop = fb.newBlock();
        BlockId done = fb.newBlock();
        fb.li(reg::t0, n);
        fb.jump(loop);
        fb.setBlock(loop);
        fb.addi(reg::t0, reg::t0, -1);
        fb.bne(reg::t0, reg::zero, loop);
        fb.setBlock(done);
        fb.halt();
    }
    b.finish();
    return b;
}

/** main = whatever @p body emits, then halt. */
template <class Body>
Built
straightLine(Body body)
{
    Built b;
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        body(fb);
        fb.halt();
    }
    b.finish();
    return b;
}

/** Split the single root task of @p m at trace index @p at, giving
 *  both halves fully-drained fetch windows up to their ends, as if
 *  everything were fetched long ago. */
void
splitTasksAt(sim::MachineState &m, TraceIdx at)
{
    sim::Task &t0 = m.tasks[0];
    sim::Task t1;
    t1.begin = at;
    t1.end = t0.end;
    t0.end = at;
    t0.fetchIdx = t0.dispIdx = t0.begin;
    t1.fetchIdx = t1.dispIdx = t1.begin;
    m.tasks.push_back(t1);
}

/** Spawn source that fires a loop-iteration hint at one PC. */
struct OneShotSource : SpawnSource
{
    Addr triggerPc = invalidAddr;
    Addr targetPc = invalidAddr;

    std::optional<SpawnHint>
    query(const LinkedInstr &li) override
    {
        if (li.addr == triggerPc)
            return SpawnHint{targetPc, SpawnKind::LoopIter, 0};
        return std::nullopt;
    }
    void onCommit(const LinkedInstr &, bool) override {}
};

TEST(Stages, FrontendSpawnTruncatesParentThenAllocates)
{
    // 6 iterations so the backward branch has later re-occurrences
    // of the loop-head PC to spawn at.
    Built b = countdownLoop(6);
    const Trace &tr = b.fr->trace;

    // Trace: li(0), jump(1), then (addi, bne) per iteration.
    // Trigger at the loop branch, target the loop-head (addi) PC.
    OneShotSource src;
    src.triggerPc = tr.staticOf(3).addr;  // bne
    src.targetPc = tr.staticOf(2).addr;   // addi (loop head)

    MachineConfig cfg;
    cfg.minSpawnDistance = 1;  // loop body is only 2 instrs long
    sim::MachineState m(cfg, tr, &src);
    ASSERT_EQ(m.tasks.size(), 1u);
    const TraceIdx rootEnd = m.tasks[0].end;

    // Fetch until the first bne is reached (cold I-cache misses and
    // the taken-branch limit spread the first instructions over many
    // cycles): the spawn decision lands the moment the trigger is
    // fetched.
    for (int c = 0; c < 200 && !m.pending.valid; ++c) {
        sim::fetch(m);
        if (m.pending.valid)
            break;
        sim::applySpawn(m);
        ++m.now;
    }
    ASSERT_TRUE(m.pending.valid);
    // Parent truncated immediately at the spawn start, before the
    // context is allocated: its fetch must stop at the boundary.
    EXPECT_EQ(m.tasks.size(), 1u);
    EXPECT_EQ(m.tasks[0].end, m.pending.start);
    EXPECT_GT(m.pending.start, TraceIdx(3));
    EXPECT_EQ(m.pending.end, rootEnd);
    EXPECT_EQ(m.pending.triggerPc, src.triggerPc);

    // End of cycle: the new context appears right after its parent,
    // owning exactly the truncated-off tail.
    sim::applySpawn(m);
    EXPECT_FALSE(m.pending.valid);
    ASSERT_EQ(m.tasks.size(), 2u);
    EXPECT_EQ(m.tasks[1].begin, m.tasks[0].end);
    EXPECT_EQ(m.tasks[1].end, rootEnd);
    EXPECT_EQ(m.tasks[1].lastFetchStall,
              sim::FetchStall::SpawnStartup);
    EXPECT_EQ(m.tasks[1].fetchReady, m.now + spawnStartupDelay);
    EXPECT_EQ(m.res.spawns, 1u);
    EXPECT_EQ(m.feedback[m.tasks[1].triggerImg].spawns, 1);
}

TEST(Stages, RenameBackpressureWhenDivertQueueFull)
{
    Built b = countdownLoop(3);
    const Trace &tr = b.fr->trace;
    // Trace: li(0), jump(1), addi(2), bne(3), addi(4), ... The addi
    // at index 4 reads t0 produced by the addi at index 2.
    ASSERT_EQ(tr.instrs[4].prod[0], TraceIdx(2));

    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    // Nothing fits: rename must stall. (A config cannot ask for this:
    // validate() rejects an empty divert queue.)
    m.cfg.divertEntries = 0;
    splitTasksAt(m, 4);  // index 4's producer is now cross-task

    // The consumer has violated before, so the rename-stage
    // predictor synchronizes it; its producer has not issued.
    m.depPred.recordRegViolation(tr.instrs[4].img());
    m.istate[4].stage = sim::InstrStage::Fetched;
    m.istate[4].fetchCycle = 0;
    m.tasks[1].fetchIdx = 5;
    m.now = std::uint64_t(frontendDepth);

    sim::dispatch(m);
    // Backpressure: still in the fetch queue, nothing allocated,
    // and the stall is counted.
    EXPECT_EQ(m.istate[4].stage, sim::InstrStage::Fetched);
    EXPECT_EQ(m.tasks[1].dispIdx, TraceIdx(4));
    EXPECT_TRUE(m.divert.empty());
    EXPECT_EQ(m.robUsed, 0);
    EXPECT_EQ(m.res.divertQueueFullStalls, 1u);

    // With divert capacity the same instruction diverts instead.
    m.cfg.divertEntries = 8;
    sim::dispatch(m);
    EXPECT_EQ(m.istate[4].stage, sim::InstrStage::Diverted);
    ASSERT_EQ(m.divert.size(), 1u);
    EXPECT_EQ(divertEntries(m).front().idx, TraceIdx(4));
    EXPECT_EQ(m.robUsed, 1);
    EXPECT_EQ(m.tasks[1].robHeld, 1);
    EXPECT_EQ(m.res.instrsDiverted, 1u);
}

TEST(Stages, RecoverySquashesYoungTasksAndTrainsPredictor)
{
    Built b = countdownLoop(3);
    const Trace &tr = b.fr->trace;

    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    splitTasksAt(m, 3);
    std::vector<TaskEvent> events;
    m.events = &events;

    // Task 0 is mid-commit: [0,2) committed, index 2 issued. Task 1
    // ran ahead: index 3 issued a stale read, index 4 in the
    // scheduler.
    m.istate[0].stage = sim::InstrStage::Committed;
    m.istate[1].stage = sim::InstrStage::Committed;
    m.istate[2].stage = sim::InstrStage::Issued;
    m.commitIdx = 2;
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 3;
    m.tasks[0].robHeld = 1;
    m.istate[3].stage = sim::InstrStage::Issued;
    m.istate[4].stage = sim::InstrStage::InSched;
    seedSched(m, {4});
    m.tasks[1].fetchIdx = m.tasks[1].dispIdx = 5;
    m.tasks[1].robHeld = 2;
    m.robUsed = 3;
    m.now = 17;

    m.pendingViolations.push_back({3, invalidTrace});
    sim::recover(m);

    // Only the violating task (and younger) squash; the head task's
    // in-flight state is untouched and commit can continue.
    EXPECT_EQ(m.res.violations, 1u);
    EXPECT_EQ(m.res.tasksSquashed, 1u);
    EXPECT_TRUE(m.depPred.predictsRegDep(tr.instrs[3].img()));
    EXPECT_EQ(m.istate[2].stage, sim::InstrStage::Issued);
    EXPECT_EQ(m.istate[3].stage, sim::InstrStage::None);
    EXPECT_EQ(m.istate[4].stage, sim::InstrStage::None);
    EXPECT_EQ(m.tasks[1].fetchIdx, m.tasks[1].begin);
    EXPECT_EQ(m.tasks[1].robHeld, 0);
    EXPECT_EQ(m.robUsed, 1);  // task 0's entry survives
    EXPECT_TRUE(m.sched.empty());
    EXPECT_EQ(m.tasks[1].fetchReady,
              m.now + std::uint64_t(squashRestartPenalty));
    EXPECT_EQ(m.tasks[1].lastFetchStall, sim::FetchStall::Squash);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, TaskEvent::Kind::Squash);
}

TEST(Stages, SquashResetsEveryPositionOfTheSquashedTasks)
{
    Built b = countdownLoop(6);
    const Trace &tr = b.fr->trace;
    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    // Tasks [0,4), [4,9) and [9,end): the middle task fetched up to
    // 8 and the tail task up to 11.
    splitTasksAt(m, 4);
    sim::Task tail = m.tasks[1];
    tail.begin = tail.fetchIdx = tail.dispIdx = 9;
    m.tasks[1].end = 9;
    m.tasks.push_back(tail);
    auto fetchUpTo = [&](sim::Task &t, TraceIdx upTo) {
        for (TraceIdx i = t.fetchIdx; i < upTo; ++i) {
            m.istate[i].stage = sim::InstrStage::Issued;
            m.istate[i].fetchCycle = 3;
            m.istate[i].completeCycle = 5;
        }
        t.fetchIdx = upTo;
    };
    fetchUpTo(m.tasks[0], 4);
    fetchUpTo(m.tasks[1], 8);
    fetchUpTo(m.tasks[2], 11);
    m.now = 6;

    sim::squashFromTask(m, 1);

    for (TraceIdx i = 0; i < 4; ++i)
        EXPECT_EQ(m.istate[i].stage, sim::InstrStage::Issued) << i;
    // Both squashed tasks restart at their begin, and everything
    // from there on is as if never fetched.
    EXPECT_EQ(m.tasks[1].fetchIdx, 4u);
    EXPECT_EQ(m.tasks[2].fetchIdx, 9u);
    EXPECT_EQ(qtest::fetchWindowViolation(m), "");
}

TEST(Stages, PositionsPastATasksFetchIndexStayUntouched)
{
    // The cycle loop on a workload that squashes, checking
    // fetchWindowViolation (and the queues) after every cycle.
    Workload w = buildWorkload("parser", 0.05);
    FunctionalOptions opt;
    opt.recordTrace = true;
    FunctionalResult r = runFunctional(w.prog, opt);
    SpawnAnalysis sa(*w.module, w.prog);
    const HintTable hints(sa, SpawnPolicy::postdoms());
    StaticSpawnSource src{hints};
    sim::MachineState m(MachineConfig{}, r.trace, &src);
    EXPECT_EQ(qtest::runCheckingQueues(m, m.cycleLimit), "");
    EXPECT_GT(m.res.tasksSquashed, 0u);
}

TEST(Stages, SynchronizedCrossTaskConsumerWaitsDivertedThenIssues)
{
    Built b = countdownLoop(3);
    const Trace &tr = b.fr->trace;
    // The addi at index 4 reads t0 from the addi at index 2, which
    // the split leaves in the older task.
    ASSERT_EQ(tr.instrs[4].prod[0], TraceIdx(2));

    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    splitTasksAt(m, 4);

    // Task 0: [0,2) committed, its producer (2) and the branch (3)
    // wait in the scheduler. Task 1: the consumer (4) is fetched.
    m.istate[0].stage = sim::InstrStage::Committed;
    m.istate[1].stage = sim::InstrStage::Committed;
    m.istate[2].stage = sim::InstrStage::InSched;
    m.istate[3].stage = sim::InstrStage::InSched;
    m.commitIdx = 2;
    seedSched(m, {2, 3});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 4;
    m.tasks[0].robHeld = 2;
    m.robUsed = 2;
    m.istate[4].stage = sim::InstrStage::Fetched;
    m.tasks[1].fetchIdx = 5;
    m.now = std::uint64_t(frontendDepth);

    // The predictor marks the consumer, so the shared rule
    // synchronizes it on its cross-task producer.
    m.depPred.recordRegViolation(tr.instrs[4].img());
    RegId srcs[2];
    ASSERT_EQ(tr.staticOf(4).instr.srcRegs(srcs), 1);
    EXPECT_TRUE(m.regSyncNeeded(2, srcs[0], tr.instrs[4], m.tasks[1]));

    sim::dispatch(m);
    EXPECT_EQ(m.istate[4].stage, sim::InstrStage::Diverted);
    ASSERT_EQ(m.divert.size(), 1u);

    // While the producer has not issued, release keeps it diverted.
    for (int c = 0; c < 5; ++c, ++m.now) {
        sim::releaseDiverted(m);
        EXPECT_EQ(m.istate[4].stage, sim::InstrStage::Diverted);
    }

    // The producer issues; from then on the consumer may re-enter
    // the scheduler, and it issues only on a completed producer.
    sim::issue(m);
    ASSERT_EQ(m.istate[2].stage, sim::InstrStage::Issued);
    EXPECT_EQ(m.istate[4].stage, sim::InstrStage::Diverted);
    ++m.now;
    for (int c = 0;
         c < 20 && m.istate[4].stage != sim::InstrStage::Issued;
         ++c, ++m.now) {
        sim::releaseDiverted(m);
        sim::issue(m);
    }
    EXPECT_EQ(m.istate[4].stage, sim::InstrStage::Issued);
    EXPECT_TRUE(m.divert.empty());
    EXPECT_TRUE(m.pendingViolations.empty());
    EXPECT_EQ(m.res.instrsDiverted, 1u);
}

TEST(Stages, DivertedConsumerWakesDelayCyclesAfterItsProducerIssues)
{
    Built b = countdownLoop(3);
    const Trace &tr = b.fr->trace;
    ASSERT_EQ(tr.instrs[4].prod[0], TraceIdx(2));

    MachineConfig cfg;
    cfg.divertReleaseDelay = 5;
    sim::MachineState m(cfg, tr, nullptr);
    splitTasksAt(m, 4);
    m.istate[0].stage = sim::InstrStage::Committed;
    m.istate[1].stage = sim::InstrStage::Committed;
    m.istate[2].stage = sim::InstrStage::InSched;
    m.istate[3].stage = sim::InstrStage::InSched;
    m.commitIdx = 2;
    seedSched(m, {2, 3});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 4;
    m.istate[4].stage = sim::InstrStage::Fetched;
    m.tasks[1].fetchIdx = 5;
    m.now = std::uint64_t(frontendDepth);
    m.depPred.recordRegViolation(tr.instrs[4].img());

    // Rename diverts the consumer and records the cross-task
    // producer it waits to see issued.
    sim::dispatch(m);
    ASSERT_EQ(m.divert.size(), 1u);
    const sim::Blocker onProducer{2, sim::Await::Issue};
    EXPECT_EQ(divertEntries(m)[0].heldBy, onProducer);

    // The producer sits in the scheduler: the entry stays held.
    for (int c = 0; c < 10; ++c, ++m.now) {
        sim::releaseDiverted(m);
        ASSERT_EQ(m.istate[4].stage, sim::InstrStage::Diverted);
        EXPECT_EQ(divertEntries(m)[0].heldBy, onProducer);
    }

    // The producer issues. Release runs before issue within a cycle,
    // so it sees the issue on the next cycle, and the consumer
    // re-enters the scheduler exactly divertReleaseDelay cycles
    // after that.
    sim::issue(m);
    ASSERT_EQ(m.istate[2].stage, sim::InstrStage::Issued);
    const std::uint64_t seen = m.now + 1;
    std::uint64_t released = 0;
    for (++m.now; m.now <= seen + 20 && released == 0; ++m.now) {
        sim::releaseDiverted(m);
        if (m.istate[4].stage == sim::InstrStage::InSched)
            released = m.now;
    }
    EXPECT_EQ(released, seen + std::uint64_t(cfg.divertReleaseDelay));
    EXPECT_TRUE(m.divert.empty());
}

TEST(Stages, SchedulerEntryIssuesTheCycleItsDivideProducerCompletes)
{
    // li(0), li(1), divu(2), addi(3) reading the quotient, halt.
    Built b = straightLine([](FunctionBuilder &fb) {
        fb.li(reg::t1, 100);
        fb.li(reg::t2, 7);
        fb.divu(reg::t0, reg::t1, reg::t2);
        fb.addi(reg::t3, reg::t0, 1);
    });
    const Trace &tr = b.fr->trace;
    ASSERT_EQ(tr.staticOf(2).instr.op, Opcode::DIVU);
    ASSERT_EQ(tr.instrs[3].prod[0], TraceIdx(2));

    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    m.istate[0].stage = sim::InstrStage::Committed;
    m.istate[1].stage = sim::InstrStage::Committed;
    m.commitIdx = 2;
    m.istate[2].stage = sim::InstrStage::InSched;
    m.istate[3].stage = sim::InstrStage::InSched;
    seedSched(m, {2, 3});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 4;
    m.now = 10;

    const std::uint64_t issuedAt = m.now;
    sim::issue(m);
    ASSERT_EQ(m.istate[2].stage, sim::InstrStage::Issued);
    ASSERT_EQ(m.sched.size(), 1u);
    EXPECT_EQ(schedEntries(m)[0].waitOn, TraceIdx(2));

    std::uint64_t consumerAt = 0;
    for (++m.now; m.now <= issuedAt + 40 && consumerAt == 0; ++m.now) {
        sim::issue(m);
        if (m.istate[3].stage == sim::InstrStage::Issued)
            consumerAt = m.now;
    }
    EXPECT_EQ(consumerAt, issuedAt + std::uint64_t(cfg.divLatency));
    EXPECT_TRUE(m.pendingViolations.empty());
}

TEST(Stages, ConsumerWaitsOnItsSecondSourceOnceTheFirstCompletes)
{
    // mul(2) and divu(3) both feed the add(4); the add lists the
    // product first.
    Built b = straightLine([](FunctionBuilder &fb) {
        fb.li(reg::t1, 6);
        fb.li(reg::t2, 3);
        fb.mul(reg::t3, reg::t1, reg::t2);
        fb.divu(reg::t4, reg::t1, reg::t2);
        fb.add(reg::t5, reg::t3, reg::t4);
    });
    const Trace &tr = b.fr->trace;
    ASSERT_EQ(tr.instrs[4].prod[0], TraceIdx(2));
    ASSERT_EQ(tr.instrs[4].prod[1], TraceIdx(3));

    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    m.istate[0].stage = sim::InstrStage::Committed;
    m.istate[1].stage = sim::InstrStage::Committed;
    m.commitIdx = 2;
    for (TraceIdx i = 2; i <= 4; ++i)
        m.istate[i].stage = sim::InstrStage::InSched;
    seedSched(m, {2, 3, 4});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 5;
    m.now = 10;

    const std::uint64_t t0 = m.now;
    sim::issue(m);
    ASSERT_EQ(m.istate[3].stage, sim::InstrStage::Issued);
    const std::uint64_t mulDone = t0 + std::uint64_t(cfg.mulLatency);
    const std::uint64_t divDone = t0 + std::uint64_t(cfg.divLatency);
    for (++m.now; m.now < divDone; ++m.now) {
        sim::issue(m);
        ASSERT_EQ(m.sched.size(), 1u) << "cycle " << m.now;
        EXPECT_EQ(schedEntries(m)[0].waitOn,
                  m.now < mulDone ? TraceIdx(2) : TraceIdx(3))
            << "cycle " << m.now;
    }
    sim::issue(m);
    EXPECT_EQ(m.istate[4].stage, sim::InstrStage::Issued);
    EXPECT_TRUE(m.sched.empty());
}

TEST(Stages, SquashedConsumerIsReDivertedOnItsCurrentBlocker)
{
    // Two older-task producers, li(0) and li(1), feed the add(2) of
    // the younger task.
    Built b = straightLine([](FunctionBuilder &fb) {
        fb.li(reg::t1, 6);
        fb.li(reg::t2, 3);
        fb.add(reg::t3, reg::t1, reg::t2);
    });
    const Trace &tr = b.fr->trace;
    ASSERT_EQ(tr.instrs[2].prod[0], TraceIdx(0));
    ASSERT_EQ(tr.instrs[2].prod[1], TraceIdx(1));

    MachineConfig cfg;
    cfg.numFUs = 1;  // the producers issue one per cycle
    sim::MachineState m(cfg, tr, nullptr);
    splitTasksAt(m, 2);
    m.istate[0].stage = sim::InstrStage::InSched;
    m.istate[1].stage = sim::InstrStage::InSched;
    seedSched(m, {0, 1});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 2;
    m.depPred.recordRegViolation(tr.instrs[2].img());
    auto fetchConsumer = [&] {
        m.istate[2].stage = sim::InstrStage::Fetched;
        m.istate[2].fetchCycle = std::uint32_t(m.now);
        m.tasks[1].fetchIdx = 3;
        m.now += std::uint64_t(frontendDepth);
    };

    fetchConsumer();
    sim::dispatch(m);
    ASSERT_EQ(m.divert.size(), 1u);
    EXPECT_EQ(divertEntries(m)[0].heldBy, (sim::Blocker{0, sim::Await::Issue}));

    // The first producer issues, then the consumer's task squashes:
    // its entry leaves the divert queue with it.
    sim::issue(m);
    ASSERT_EQ(m.istate[0].stage, sim::InstrStage::Issued);
    ASSERT_EQ(m.istate[1].stage, sim::InstrStage::InSched);
    sim::squashFromTask(m, 1);
    EXPECT_TRUE(m.divert.empty());

    // Re-dispatched, the consumer waits on the producer that holds
    // it now, not on the one its squashed entry recorded.
    ++m.now;
    fetchConsumer();
    sim::dispatch(m);
    ASSERT_EQ(m.divert.size(), 1u);
    EXPECT_EQ(divertEntries(m)[0].heldBy, (sim::Blocker{1, sim::Await::Issue}));
    for (int c = 0; c < 5; ++c, ++m.now) {
        sim::releaseDiverted(m);
        EXPECT_EQ(m.istate[2].stage, sim::InstrStage::Diverted);
    }
}

/** Slot of instruction @p i in the divert queue; noSlot if none. */
sim::Slot
divertSlotOf(const sim::MachineState &m, TraceIdx i)
{
    for (sim::Slot d = 0; d < m.divert.slots.size(); ++d) {
        if (m.divert.slots[d].idx == i)
            return d;
    }
    return sim::noSlot;
}

TEST(Stages, ConsumerWokenByAnEarlierReleaseIsExaminedInTheSameScan)
{
    // li(0) in the older task feeds addi(1) in the younger one,
    // which feeds addi(2) in the same task.
    Built b = straightLine([](FunctionBuilder &fb) {
        fb.li(reg::t0, 5);
        fb.addi(reg::t1, reg::t0, 1);
        fb.addi(reg::t2, reg::t1, 1);
    });
    const Trace &tr = b.fr->trace;
    ASSERT_EQ(tr.instrs[1].prod[0], TraceIdx(0));
    ASSERT_EQ(tr.instrs[2].prod[0], TraceIdx(1));

    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    splitTasksAt(m, 1);
    seedSched(m, {0});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 1;
    // The predictor synchronizes 1 on its cross-task producer; 2
    // follows its same-task producer into the divert queue.
    m.depPred.recordRegViolation(tr.instrs[1].img());
    m.istate[1].stage = sim::InstrStage::Fetched;
    m.istate[2].stage = sim::InstrStage::Fetched;
    m.tasks[1].fetchIdx = 3;
    m.now = std::uint64_t(frontendDepth);
    sim::dispatch(m);
    const auto queued = divertEntries(m);
    ASSERT_EQ(queued.size(), 2u);
    EXPECT_EQ(queued[0].heldBy, (sim::Blocker{0, sim::Await::Issue}));
    EXPECT_EQ(queued[1].heldBy, (sim::Blocker{1, sim::Await::Rename}));

    // The producer issues this cycle; release sees it the next.
    sim::issue(m);
    ASSERT_EQ(m.istate[0].stage, sim::InstrStage::Issued);
    const std::uint64_t seen = m.now + 1;
    std::uint64_t released[3] = {};
    for (++m.now; m.now <= seen + 20 && released[2] == 0; ++m.now) {
        sim::releaseDiverted(m);
        for (TraceIdx i : {TraceIdx(1), TraceIdx(2)}) {
            if (released[i] == 0 &&
                m.istate[i].stage != sim::InstrStage::Diverted)
                released[i] = m.now;
        }
        sim::issue(m);
        ASSERT_EQ(queueInvariantViolation(m), "") << "cycle " << m.now;
    }
    // 1 is let go the cycle it sees its producer issued and leaves
    // divertReleaseDelay cycles later. Its release wakes 2 within
    // the same scan, so 2 is let go in that cycle, not the next.
    const auto delay = std::uint64_t(cfg.divertReleaseDelay);
    EXPECT_EQ(released[1], seen + delay);
    EXPECT_EQ(released[2], released[1] + delay);
}

TEST(Stages, LoadHeldOnItsStoreWakesAtTheStoresCompleteCycle)
{
    // sd(2) writes the word ld(3) reads back.
    Built b;
    const Addr cell = b.mod.allocData("cell", 8);
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        fb.li(reg::gp, std::int64_t(cell));
        fb.li(reg::t0, 7);
        fb.sd(reg::t0, reg::gp, 0);
        fb.ld(reg::t1, reg::gp, 0);
        fb.halt();
    }
    b.finish();
    const Trace &tr = b.fr->trace;
    ASSERT_EQ(tr.memProd(tr.instrs[3]), TraceIdx(2));

    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    m.istate[0].stage = sim::InstrStage::Committed;
    m.istate[1].stage = sim::InstrStage::Committed;
    m.commitIdx = 2;
    seedSched(m, {2});
    m.istate[3].stage = sim::InstrStage::Fetched;
    m.tasks[0].fetchIdx = 4;
    m.tasks[0].dispIdx = 3;
    m.now = 10;

    // A same-task load synchronizes on its store's data.
    sim::dispatch(m);
    const sim::Slot load = divertSlotOf(m, 3);
    ASSERT_NE(load, sim::noSlot);
    const sim::Blocker onStore{2, sim::Await::Result};
    EXPECT_EQ(m.divert.slots[load].heldBy, onStore);

    // The store issues; the load moves to the wheel bucket of the
    // store's completion cycle.
    sim::issue(m);
    ASSERT_EQ(m.istate[2].stage, sim::InstrStage::Issued);
    const std::uint64_t done = m.istate[2].completeCycle;
    ASSERT_GT(done, m.now);
    EXPECT_EQ(m.wheel[done & (m.wheel.size() - 1)], m.divertNode(load));
    EXPECT_EQ(queueInvariantViolation(m), "");

    std::uint64_t letGo = 0, released = 0;
    for (++m.now; m.now <= done + 20 && released == 0; ++m.now) {
        sim::releaseDiverted(m);
        if (m.istate[3].stage == sim::InstrStage::InSched) {
            released = m.now;
        } else if (letGo == 0 && !m.divert.slots[load].heldBy) {
            letGo = m.now;
        } else if (letGo == 0) {
            EXPECT_EQ(m.divert.slots[load].heldBy, onStore);
        }
        ASSERT_EQ(queueInvariantViolation(m), "") << "cycle " << m.now;
    }
    EXPECT_EQ(letGo, done);
    EXPECT_EQ(released, done + std::uint64_t(cfg.divertReleaseDelay));
}

TEST(Stages, ConsumerParkedAtRenameIssuesWhenItsProducerCompletes)
{
    // addi(1) reads the t0 of mul(0).
    Built b = straightLine([](FunctionBuilder &fb) {
        fb.mul(reg::t0, reg::t1, reg::t2);
        fb.addi(reg::t3, reg::t0, 1);
    });
    const Trace &tr = b.fr->trace;
    ASSERT_EQ(tr.instrs[1].prod[0], TraceIdx(0));

    // Rename parks the consumer on its producer, which has not
    // issued. The producer issues the next cycle, and the consumer
    // issues the cycle its result is ready: through the wheel for a
    // 3-cycle mul, and within the same issue scan for a 0-cycle one.
    for (int latency : {3, 0}) {
        MachineConfig cfg;
        cfg.mulLatency = latency;
        sim::MachineState m(cfg, tr, nullptr);
        seedSched(m, {0});
        m.tasks[0].dispIdx = 1;
        m.tasks[0].fetchIdx = 2;
        m.istate[1].stage = sim::InstrStage::Fetched;
        m.now = std::uint64_t(frontendDepth);
        sim::dispatch(m);
        ASSERT_EQ(m.istate[1].stage, sim::InstrStage::InSched);
        EXPECT_EQ(schedEntries(m)[1].waitOn, TraceIdx(0));
        EXPECT_EQ(m.sched.ready.size() + m.sched.arrived.size(), 1u)
            << "only the producer";
        EXPECT_EQ(queueInvariantViolation(m), "");

        const std::uint64_t producerAt = m.now + 1;
        std::uint64_t consumerAt = 0;
        for (++m.now; m.now <= producerAt + 10 && consumerAt == 0;
             ++m.now) {
            sim::releaseDiverted(m);
            sim::issue(m);
            ASSERT_EQ(m.istate[0].stage, sim::InstrStage::Issued);
            if (m.istate[1].stage == sim::InstrStage::Issued)
                consumerAt = m.now;
            ASSERT_EQ(queueInvariantViolation(m), "")
                << "latency " << latency << ", cycle " << m.now;
        }
        EXPECT_EQ(consumerAt, producerAt + std::uint64_t(latency))
            << "latency " << latency;
        EXPECT_TRUE(m.sched.empty());
    }
}

TEST(Stages, ResultDueBeyondTheWheelsSpanWakesItsConsumerOnTime)
{
    // A latency past the wheel's largest size makes completion
    // cycles share a bucket; the consumer still issues the cycle its
    // producer's result is ready.
    Built b = straightLine([](FunctionBuilder &fb) {
        fb.mul(reg::t0, reg::t1, reg::t2);
        fb.addi(reg::t3, reg::t0, 1);
    });
    MachineConfig cfg;
    cfg.mulLatency = 70'000;
    sim::MachineState m(cfg, b.fr->trace, nullptr);
    ASSERT_LT(m.wheel.size(), std::size_t(cfg.mulLatency));
    seedSched(m, {0, 1});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 2;
    m.now = 10;

    const std::uint64_t issuedAt = m.now;
    sim::issue(m);
    ASSERT_EQ(m.istate[0].stage, sim::InstrStage::Issued);
    EXPECT_EQ(queueInvariantViolation(m), "");
    std::uint64_t consumerAt = 0;
    const std::uint64_t due = issuedAt + std::uint64_t(cfg.mulLatency);
    for (++m.now; m.now <= due + 10 && consumerAt == 0; ++m.now) {
        sim::issue(m);
        if (m.istate[1].stage == sim::InstrStage::Issued)
            consumerAt = m.now;
    }
    EXPECT_EQ(consumerAt, due);
}

TEST(Stages, SquashedEntryParkedOnASurvivingProducerIsReParkedOnce)
{
    // li(0) in the older task feeds add(1) in the younger one.
    Built b = straightLine([](FunctionBuilder &fb) {
        fb.li(reg::t1, 6);
        fb.add(reg::t3, reg::t1, reg::t1);
    });
    const Trace &tr = b.fr->trace;
    ASSERT_EQ(tr.instrs[1].prod[0], TraceIdx(0));

    MachineConfig cfg;
    sim::MachineState m(cfg, tr, nullptr);
    splitTasksAt(m, 1);
    seedSched(m, {0});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = 1;
    m.tasks[0].robHeld = 1;
    m.robUsed = 1;
    m.depPred.recordRegViolation(tr.instrs[1].img());
    auto fetchConsumer = [&] {
        m.istate[1].stage = sim::InstrStage::Fetched;
        m.istate[1].fetchCycle = std::uint32_t(m.now);
        m.tasks[1].fetchIdx = 2;
        m.now += std::uint64_t(frontendDepth);
    };
    const sim::Blocker onProducer{0, sim::Await::Issue};

    fetchConsumer();
    sim::dispatch(m);
    ASSERT_EQ(divertEntries(m).size(), 1u);
    EXPECT_EQ(divertEntries(m)[0].heldBy, onProducer);
    EXPECT_NE(m.waiterHead[0], sim::noSlot);

    // The consumer's task squashes while the producer, in the older
    // task, survives unissued: the entry leaves its waiter list.
    sim::squashFromTask(m, 1);
    EXPECT_TRUE(m.divert.empty());
    EXPECT_EQ(m.waiterHead[0], sim::noSlot);
    EXPECT_EQ(queueInvariantViolation(m), "");

    // Re-dispatched, it parks on the same producer again, once.
    ++m.now;
    fetchConsumer();
    sim::dispatch(m);
    ASSERT_EQ(divertEntries(m).size(), 1u);
    EXPECT_EQ(divertEntries(m)[0].heldBy, onProducer);
    EXPECT_EQ(queueInvariantViolation(m), "");
    const sim::Slot head = m.waiterHead[0];
    ASSERT_NE(head, sim::noSlot);
    EXPECT_EQ(m.waiterNext[head], sim::noSlot);

    // The run then finishes, with every cycle's queues consistent.
    EXPECT_EQ(qtest::runCheckingQueues(m, m.now + 1000), "");
    EXPECT_EQ(m.commitIdx, TraceIdx(tr.size()));
}

TEST(Stages, LetGoDivertEntryReParksWhenRecoveryTrainsItsPredictor)
{
    // Two iterations of: q = addi t3, t0, 0; e = add t4, t3, t1,
    // where t1 comes from the li before the loop.
    Built b;
    Function &f = b.mod.createFunction("main");
    {
        FunctionBuilder fb(f);
        BlockId loop = fb.newBlock();
        BlockId done = fb.newBlock();
        fb.li(reg::t0, 2);
        fb.li(reg::t1, 5);
        fb.jump(loop);
        fb.setBlock(loop);
        fb.addi(reg::t3, reg::t0, 0);
        fb.add(reg::t4, reg::t3, reg::t1);
        fb.addi(reg::t0, reg::t0, -1);
        fb.bne(reg::t0, reg::zero, loop);
        fb.setBlock(done);
        fb.halt();
    }
    b.finish();
    const Trace &tr = b.fr->trace;
    // The trace is li, li, j, then the loop body twice. e of the
    // first iteration (4) reads q (3) and the second li (1); the
    // second iteration's e (8) is the same static instruction.
    const TraceIdx q = 3, e = 4, p = 1, later = 8;
    ASSERT_EQ(tr.instrs[e].prod[0], q);
    ASSERT_EQ(tr.instrs[e].prod[1], p);
    ASSERT_EQ(tr.instrs[q].prod[0], TraceIdx(0));
    ASSERT_EQ(tr.instrs[later].img(), tr.instrs[e].img());

    // Tasks [0, 3), [3, 7) and [7, end). One FU, so the older task's
    // first li issues alone and p waits in the scheduler.
    MachineConfig cfg;
    cfg.numFUs = 1;
    cfg.divertReleaseDelay = 5;
    sim::MachineState m(cfg, tr, nullptr);
    splitTasksAt(m, q);
    sim::Task youngest;
    youngest.begin = youngest.fetchIdx = youngest.dispIdx = later;
    youngest.end = m.tasks[1].end;
    m.tasks[1].end = later;
    m.tasks.push_back(youngest);
    seedSched(m, {0, 1, 2});
    m.tasks[0].fetchIdx = m.tasks[0].dispIdx = q;
    m.istate[q].stage = sim::InstrStage::Fetched;
    m.istate[e].stage = sim::InstrStage::Fetched;
    m.tasks[1].fetchIdx = e + 1;
    m.now = std::uint64_t(frontendDepth);

    // q synchronizes on the older li that writes t0, and e follows
    // q, its same-task producer, into the divert queue.
    m.depPred.recordRegViolation(tr.instrs[q].img());
    sim::dispatch(m);
    const sim::Slot slot = divertSlotOf(m, e);
    ASSERT_NE(slot, sim::noSlot);
    EXPECT_EQ(m.divert.slots[slot].heldBy,
              (sim::Blocker{q, sim::Await::Rename}));

    // The li writing t0 issues; q re-enters the scheduler after the
    // release delay, which wakes e and lets it go. Only release runs
    // from here on, so p never issues.
    sim::issue(m);
    ASSERT_EQ(m.istate[0].stage, sim::InstrStage::Issued);
    ASSERT_EQ(m.istate[p].stage, sim::InstrStage::InSched);
    for (++m.now; m.istate[q].stage != sim::InstrStage::InSched;
         ++m.now) {
        ASSERT_LT(m.now, 100u);
        sim::releaseDiverted(m);
    }
    const sim::DivertEntry &entry = m.divert.slots[slot];
    ASSERT_EQ(entry.idx, e);
    ASSERT_FALSE(entry.heldBy);
    const std::uint64_t readyAt = entry.readyAt;
    ASSERT_GT(readyAt, m.now) << "e waits out the release delay";
    EXPECT_EQ(queueInvariantViolation(m), "");

    // While e waits, the later instance of its instruction reads t1
    // stale: recovery trains e's instruction and squashes the
    // youngest task. From now on e synchronizes on p, which has not
    // issued, so the next release scan parks e on p.
    m.pendingViolations.push_back({later, invalidTrace});
    sim::recover(m);
    ASSERT_TRUE(m.depPred.predictsRegDep(tr.instrs[e].img()));
    for (; m.now <= readyAt + 10; ++m.now) {
        sim::releaseDiverted(m);
        ASSERT_EQ(m.istate[e].stage, sim::InstrStage::Diverted)
            << "cycle " << m.now;
        EXPECT_EQ(m.divert.slots[slot].heldBy,
                  (sim::Blocker{p, sim::Await::Issue}))
            << "cycle " << m.now;
        ASSERT_EQ(queueInvariantViolation(m), "") << "cycle " << m.now;
    }
    EXPECT_EQ(m.waiterHead[p], m.divertNode(slot));
}

TEST(Stages, TraceTooLongForThirtyTwoBitCyclesIsRejected)
{
    // InstrState holds 32-bit cycles, so the MachineState
    // constructor takes the cycle limit from cycleLimitFor, which
    // refuses a trace whose limit (plus the longest latency) would
    // not fit.
    const MachineConfig cfg;
    EXPECT_EQ(sim::MachineState::cycleLimitFor(cfg, 1000),
              std::uint64_t(1'200'000));
    EXPECT_EQ(sim::MachineState::cycleLimitFor(cfg, 21'000'000),
              std::uint64_t(4'201'000'000));
    try {
        sim::MachineState::cycleLimitFor(cfg, 21'500'000);
        FAIL() << "expected a trace-size error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("21500000 instructions"), std::string::npos)
            << msg;
    }
}

TEST(Stages, Sha256MatchesKnownVector)
{
    // FIPS 180-4 test vector; guards the hash the cycle pin
    // (test_golden.cc) is pinned with.
    EXPECT_EQ(store::sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------
// TimingSim::runBatch: N items equal N single runs.
// ---------------------------------------------------------------

TEST(Batch, EmptyBatchReturnsNoResults)
{
    std::vector<BatchItem> none;
    EXPECT_TRUE(TimingSim::runBatch(MachineConfig{}, none).empty());
}

/** One machine of a runBatch-versus-fresh-runs comparison. */
struct BatchCase
{
    Session *session;
    driver::SourceSpec spec;
    std::string label;
};

/** A fresh spawn source for @p spec over @p s's cached hint tables
 *  (dynamic sources train, so no two runs may share one); null for
 *  the baseline. */
std::unique_ptr<SpawnSource>
freshSource(const Session &s, const driver::SourceSpec &spec)
{
    switch (spec.kind) {
      case driver::SourceSpec::Kind::Baseline:
        return nullptr;
      case driver::SourceSpec::Kind::Static:
        return std::make_unique<StaticSpawnSource>(s.hints(spec.policy));
      case driver::SourceSpec::Kind::Recon:
        return std::make_unique<ReconSpawnSource>();
      case driver::SourceSpec::Kind::Dmt:
        return std::make_unique<DmtSpawnSource>();
    }
    return nullptr;
}

/** Run @p cases through one TimingSim::runBatch over items built
 *  from each session's cache when @p together, else through one
 *  Session::simulate each. Returns the results and each machine's
 *  task events. */
std::pair<std::vector<TimingResult>,
          std::vector<std::vector<TaskEvent>>>
runCases(const std::vector<BatchCase> &cases,
         const MachineConfig &cfg, bool together)
{
    std::vector<std::vector<TaskEvent>> events(cases.size());
    std::vector<TimingResult> out;
    if (together) {
        std::vector<std::unique_ptr<SpawnSource>> sources;
        std::vector<BatchItem> items;
        for (size_t i = 0; i < cases.size(); ++i) {
            const Session &s = *cases[i].session;
            sources.push_back(freshSource(s, cases[i].spec));
            const TraceIndex *index = sources.back()
                ? s.cache()->traceIndex(s.name(), s.scale()).get()
                : nullptr;
            items.push_back({&s.trace(), sources.back().get(), index,
                             cases[i].label, &events[i]});
        }
        out = TimingSim::runBatch(cfg, items);
    } else {
        for (size_t i = 0; i < cases.size(); ++i) {
            RunOptions opt;
            opt.events = &events[i];
            out.push_back(cases[i].session->simulate(
                cfg, cases[i].spec, cases[i].label, opt));
        }
    }
    return {std::move(out), std::move(events)};
}

TEST(Batch, OfFourEqualsFourFreshRuns)
{
    // runBatch runs its items one after another, each on a state of
    // its own: every machine must see exactly the cycles, counters
    // and task events of a single run.
    Session s = Session::open("twolf", 0.04);
    const MachineConfig cfg;
    const std::vector<BatchCase> cases = {
        {&s, driver::SourceSpec::statics(SpawnPolicy::postdoms()),
         "postdoms"},
        {&s, driver::SourceSpec::recon(), "rec_pred"},
        {&s, driver::SourceSpec::dmt(), "dmt"},
        {&s, driver::SourceSpec::statics(SpawnPolicy::loop()),
         "loop"},
    };
    const auto [alone, aloneEvents] = runCases(cases, cfg, false);
    const auto [batched, batchedEvents] = runCases(cases, cfg, true);
    ASSERT_EQ(batched.size(), cases.size());
    for (size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(batched[i], alone[i]) << cases[i].label;
        EXPECT_EQ(batchedEvents[i], aloneEvents[i]) << cases[i].label;
        EXPECT_FALSE(batchedEvents[i].empty()) << cases[i].label;
    }
}

TEST(Batch, HeterogeneousTracesFinishIndependently)
{
    // Machines over different workloads and scales — different trace
    // lengths and finish cycles — plus baseline machines (no spawn
    // source) in one runBatch. Every result must match its own fresh
    // run, in item order.
    const MachineConfig cfg;
    const auto postdoms =
        driver::SourceSpec::statics(SpawnPolicy::postdoms());
    const auto baseline = driver::SourceSpec::baseline();

    Session twolfSmall = Session::open("twolf", 0.02);
    Session twolfBig = Session::open("twolf", 0.06);
    Session mcf = Session::open("mcf", 0.04);

    const std::vector<BatchCase> cases = {
        {&twolfBig, postdoms, "pd-big"},
        {&twolfSmall, postdoms, "pd-small"},
        {&mcf, baseline, "base-mcf"},
        {&twolfSmall, baseline, "base-small"},
    };
    const auto [alone, aloneEvents] = runCases(cases, cfg, false);
    const auto [batched, batchedEvents] = runCases(cases, cfg, true);

    ASSERT_EQ(batched.size(), cases.size());
    EXPECT_NE(batched[0].cycles, batched[1].cycles);
    EXPECT_NE(batched[1].cycles, batched[2].cycles);
    for (size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(batched[i], alone[i]) << cases[i].label;
        EXPECT_EQ(batchedEvents[i], aloneEvents[i]) << cases[i].label;
    }
}

} // namespace
} // namespace polyflow
