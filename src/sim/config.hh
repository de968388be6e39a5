/**
 * @file
 * Machine configuration (Figure 8 of the paper, plus the model knobs
 * this reproduction exposes for ablation) and the fixed parameters
 * that no experiment varies.
 */

#ifndef POLYFLOW_SIM_CONFIG_HH
#define POLYFLOW_SIM_CONFIG_HH

#include <cstdint>
#include <string>

namespace polyflow {

/** Geometry and miss latency of one cache level. */
struct CacheConfig
{
    int sizeBytes;
    int assoc;
    int lineBytes;
    /** Extra cycles paid when this level misses. */
    int missLatency;

    bool operator==(const CacheConfig &) const = default;
};

/** @name Fixed machine parameters
 *  Figure 8 values and model constants that no experiment varies;
 *  MachineConfig holds the settings the figures, the ablation and the
 *  tests do vary. @{ */
constexpr int gshareCounters = 8192;  //!< 16 Kbit = 8192 2-bit counters
constexpr int historyBits = 8;        //!< global history per task
constexpr int minMispredictPenalty = 8;
/** Taken branches a task may fetch past per cycle: fetch ends a
 *  task's cycle at its first taken branch. */
constexpr int maxTakenPerTaskCycle = 1;
constexpr int frontendDepth = 3;      //!< fetch -> earliest rename, cycles
/** Cycles before a squashed task fetches again. */
constexpr int squashRestartPenalty = 8;
/** Cycles between a spawn decision and the new task's first fetch
 *  (context allocation, rename-map copy). */
constexpr int spawnStartupDelay = 2;
/** Use the compiler-provided register dependence masks from the hint
 *  cache to synchronize consumers up front. A source without compiler
 *  hints (rec_pred, DMT) supplies zero masks and learns by
 *  violation. */
constexpr bool compilerDepHints = true;
/** @} */

static_assert(gshareCounters > 0 &&
                  (gshareCounters & (gshareCounters - 1)) == 0,
              "gshare indexes its table with a mask");
static_assert(historyBits >= 0 && historyBits <= 31,
              "the history register is a 32-bit shift register");

/** The PolyFlow machine configuration (defaults = Figure 8). */
struct MachineConfig
{
    /** @name Figure 8 parameters @{ */
    int pipelineWidth = 8;       //!< instrs/cycle, every stage
    int numTasks = 8;            //!< task contexts
    int robEntries = 512;        //!< dynamically shared
    int schedEntries = 64;       //!< dynamically shared
    int divertEntries = 128;     //!< dynamically shared
    int numFUs = 8;              //!< identical general-purpose units
    CacheConfig l1i{8 * 1024, 2, 128, 10};
    CacheConfig l1d{16 * 1024, 4, 64, 10};
    CacheConfig l2{512 * 1024, 8, 128, 100};
    /** @} */

    /** @name SMT fetch @{ */
    int fetchTasksPerCycle = 2;  //!< superscalar baseline uses 1
    int fetchQueueEntries = 32;  //!< per task, fetched-not-renamed
    /** @} */

    /** @name Backend latencies @{ */
    int intLatency = 1;
    int mulLatency = 3;
    int divLatency = 12;
    int loadLatency = 2;         //!< L1-hit load-to-use latency
    /** @} */

    /** @name Task spawn unit @{ */
    /**
     * Max dynamic distance (in committed instructions) between the
     * trigger and the spawned task's start. Because only the tail
     * task may spawn, an accepted far spawn kills every nearer
     * opportunity inside its range; the paper's spawn unit uses its
     * trace to keep tasks from being "spawned too far into the
     * future" for the same reason.
     */
    std::uint32_t maxSpawnDistance = 512;
    /** Hammock joins can be just a couple of instructions past the
     *  branch (the paper's twolf example); keep the floor low. */
    std::uint32_t minSpawnDistance = 2;
    bool spawnFeedback = true;   //!< disable repeatedly-squashing PCs
    /** Model wrong-path spawns: while a mispredicted branch is
     *  unresolved, fetch beyond it would have spawned bogus tasks;
     *  each unresolved mispredict holds one task context hostage
     *  ("ghost" context) until the branch resolves. */
    bool wrongPathGhosts = true;
    /** Extra cycles a diverted instruction spends between its
     *  wake-up condition holding and re-entering rename (FIFO
     *  re-dispatch cost of the divert queue). */
    int divertReleaseDelay = 2;
    /** ROB headroom reserved per older active task so that young
     *  tasks cannot deadlock the in-order commit (see DESIGN.md). */
    int robReservePerOlderTask = 16;
    /**
     * Paper future work (Section 6): let every task spawn, not just
     * the tail. Each non-tail spawn splits that task's remaining
     * range, so nested hammocks can spawn past their inner branch.
     * One spawn per cycle (a single spawn-unit port).
     */
    bool spawnFromAnyTask = false;
    /** @} */

    int returnStackEntries = 16;

    /** Superscalar baseline: same resources, a single task. */
    static MachineConfig
    superscalar()
    {
        MachineConfig c;
        c.numTasks = 1;
        c.fetchTasksPerCycle = 1;
        return c;
    }

    /** Memberwise equality, for comparing the configs of sweep
     *  cells. */
    bool operator==(const MachineConfig &) const = default;

    std::string describe() const;

    /**
     * Reject a config no machine can run: a non-positive
     * pipelineWidth, numTasks, robEntries, schedEntries,
     * divertEntries, numFUs, fetchTasksPerCycle, fetchQueueEntries
     * or returnStackEntries; a negative latency or delay
     * (intLatency, mulLatency, divLatency, loadLatency,
     * divertReleaseDelay, robReservePerOlderTask or a cache's
     * missLatency); or a cache (l1i, l1d, l2) whose geometry is not
     * positive or whose set count is not a power of two.
     * @throws std::invalid_argument naming the bad field
     */
    void validate() const;
};

} // namespace polyflow

#endif // POLYFLOW_SIM_CONFIG_HH
