/**
 * @file
 * Cycle-driven Multiscalar timing model (section 5.2 configuration).
 *
 * The processor sequences a trace's tasks onto a ring of processing
 * stages (task t runs on stage t mod numStages).  Each stage fetches
 * its task in order and issues up to issueWidth ready ops per cycle
 * from a small scheduling window.  Register dependences crossing tasks
 * pay ring-hop latency.  Intra-task memory dependences are never
 * speculated (a load waits until all earlier same-task stores have
 * executed); inter-task memory dependences are handled per the
 * configured speculation policy.  An ARB detects violations; recovery
 * squashes the offending load's task and all younger tasks.
 */

#ifndef MDP_MULTISCALAR_PROCESSOR_HH
#define MDP_MULTISCALAR_PROCESSOR_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "base/event_frontier.hh"
#include "base/soa_lanes.hh"
#include "mdp/dep_policy.hh"
#include "mdp/sync_unit.hh"
#include "multiscalar/arb.hh"
#include "multiscalar/config.hh"
#include "multiscalar/interconnect.hh"
#include "multiscalar/memsys.hh"
#include "multiscalar/task_info.hh"
#include "trace/dep_oracle.hh"
#include "trace/trace.hh"

namespace mdp
{

/**
 * One simulation run of one trace under one configuration.  Construct
 * and call run() once.
 */
class MultiscalarProcessor : public TaskPcSource
{
  public:
    MultiscalarProcessor(const TraceView &trace, const DepOracle &oracle,
                         const TaskSet &tasks,
                         const MultiscalarConfig &config);
    ~MultiscalarProcessor() override;

    /** Execute the whole trace; returns aggregate results. */
    SimResult run();

    /** TaskPcSource: PC of an in-flight task, 0 when unknown. */
    Addr taskPc(uint64_t instance) const override;

  private:
    // Op-state flags.
    /** Woken by a store signal; the pending full flag will be consumed
     *  at issue (no re-classification). */
    static constexpr uint16_t kSignaled = 1 << 0;
    static constexpr uint16_t kIssued = 1 << 1;
    static constexpr uint16_t kBlockedSync = 1 << 2;
    static constexpr uint16_t kBlockedFrontier = 1 << 3;
    static constexpr uint16_t kBlockedPsync = 1 << 4;
    static constexpr uint16_t kPredPendingN = 1 << 5;
    static constexpr uint16_t kPredPendingY = 1 << 6;
    /** The load already completed its synchronization (signal,
     *  frontier or eviction release): it must not re-consult the
     *  predictor when it finally issues. */
    static constexpr uint16_t kSyncDone = 1 << 7;
    /** The load consumed a predicted value instead of synchronizing
     *  (VSync); a violation by a value-repeating store is benign. */
    static constexpr uint16_t kValuePred = 1 << 8;
    /** A register producer has not issued yet (srcPending > 0). */
    static constexpr uint16_t kSrcWait = 1 << 9;

    /** Flags that take an op out of the issue scan. */
    static constexpr uint16_t kNotIssuable = kIssued | kBlockedSync |
        kBlockedFrontier | kBlockedPsync | kSrcWait;

    /**
     * A ring slot.  The scheduling window is a *range view* over the
     * packed status lane: exactly the non-issued ops in
     * [windowBase, fetchPtr), in ascending order.  windowBase is
     * lazily advanced past the issued prefix, windowCount mirrors the
     * window occupancy (fetch gating), and the issue scan hops
     * non-candidates via the flags-lane kernel -- no per-stage seq
     * vector to erase/compact every cycle.
     */
    struct Stage
    {
        int64_t task = -1;
        SeqNum fetchPtr = 0;
        SeqNum windowBase = 0;
        uint32_t windowCount = 0;
        uint64_t resumeCycle = 0;
    };

    struct TaskRun
    {
        uint32_t storePtr = 0;     ///< first possibly-unexecuted store
        uint32_t issuedOps = 0;
        uint64_t lastDone = 0;     ///< max doneCycle of issued ops
    };

    /** LoadIssueContext over one ready load (defined in the .cc). */
    struct IssueCtx;

    // --- per-cycle phases -------------------------------------------
    /** One simulated cycle after run() advanced the clock: every
     *  phase below, then the fast-forward jump. */
    void simulateCycle(uint32_t num_tasks);
    void sequencerStep();

    /** Fetch into, then issue from, the window of stage @p stage_idx. */
    void stageStep(unsigned stage_idx);

    /** One issue attempt for a scan candidate (see stageStep).
     *  Force-inlined: the out-of-line form passes the FU budgets by
     *  reference per candidate and spills them out of registers, which
     *  costs a few percent of the whole run on the dense benches. */
    __attribute__((always_inline)) inline
    void issueOne(SeqNum seq, uint32_t t, Stage &stage,
                  unsigned &simple_fu, unsigned &complex_fu,
                  unsigned &fp_fu, unsigned &branch_fu,
                  unsigned &mem_ports, unsigned &issued);
    void frontierScan();
    void drainSyncReleases();
    void commitStep();

    // --- per-PE event frontier (manycore fast path) -----------------
    /**
     * Drain the PE frontier into this cycle's due set: the positions
     * (ring order relative to the head task's stage) of every stage
     * whose park time has arrived.  Skipping every other stage is
     * provably invisible -- a stage is only parked past a cycle when
     * stepping it that cycle could not mutate any semantic state, and
     * every event that can change that verdict wakes it (wakeStage).
     */
    void collectDue();

    /**
     * Lower stage @p s's park time to @p t (a no-op without the
     * frontier).  A wake at the current
     * cycle (a flag cleared mid stage-loop by another stage's store)
     * splices the stage into the remainder of this cycle's due walk
     * when its ring position has not been passed yet -- exactly the
     * stages the reference all-stage loop would still visit -- and
     * otherwise re-arms it for the next cycle.
     */
    void wakeStage(unsigned s, uint64_t t);

    /** Producer @p seq (task @p t) issued: forwarding statistics,
     *  deliver the operand to every consumer, and wake each in-flight
     *  consumer's stage at its value-arrival cycle. */
    void onIssued(SeqNum seq, uint32_t t);

    /** Operand state of one op, polled from its producers' flags,
     *  completion times and hops. */
    struct Operands
    {
        uint8_t pending = 0;    ///< producers not issued yet
        uint64_t arrival = 0;   ///< last arrival among issued ones
    };
    Operands polledOperands(SeqNum seq) const;
    /** Squash recovery: re-poll the operand state of @p seq. */
    void resetOperands(SeqNum seq);
    /** Debug builds panic unless the woken operand state of @p seq
     *  equals polledOperands(); release builds check nothing. */
#ifdef NDEBUG
    void checkOperands(SeqNum) const {}
#else
    void checkOperands(SeqNum seq) const;
#endif

    /**
     * The per-stage portion of nextInterestingCycle() -- squash
     * resume and timed window readiness of stage @p k, with the same
     * "strictly after the current cycle" filter; @p cap + 1 when
     * none.  The reference scan takes the min over all stages; the
     * frontier path uses it as the exact park time of one stage.
     */
    uint64_t stageNextInteresting(unsigned k, uint64_t cap) const;

    /**
     * The global (non-per-stage) portion of nextInterestingCycle():
     * sequencer recovery, head-task commit and the synchronizer's
     * timed wakeup, with the same "strictly after the current cycle"
     * filter; @p cap + 1 when none.  Shared by both jump-target paths.
     */
    uint64_t globalNextInteresting(uint64_t cap) const;

    /**
     * Frontier-mode jump target: the global O(1) terms (sequencer
     * recovery, head-task commit, synchronizer wakeup) plus the
     * validated frontier minimum.  Park times are conservative-early
     * (wakes only ever lower them), so the top entry is re-validated
     * against stageNextInteresting() until it is exact -- at which
     * point every other entry is provably no earlier, and the target
     * equals the reference scan's to the cycle.
     */
    uint64_t frontierJumpTarget(uint64_t cap);

    /**
     * Heap-backed storeFrontierBound(): the same exact minimum,
     * validated lazily from a heap of (first possibly-unexecuted
     * store, task) entries instead of walking every in-flight task.
     * Entry keys are conservative-low (task assignment and squash
     * push the task's first store; keys only advance at validation),
     * so the validated top is the true bound.
     */
    uint64_t storeFrontierBoundFast();

    /** Frontier mode: push task @p t's first store onto storeHeap. */
    void pushFirstStore(uint32_t t);

    /** Record a semantic mutation: licenses no fast-forward jump this
     *  cycle, and marks the currently stepped stage as active. */
    void
    act()
    {
        cycleActivity = true;
        ++actStamp;
    }

    /** Forwarding hops from producer task @p p to consumer task
     *  @p c -- the interconnect.hh formulas, dispatched inline. */
    uint64_t
    regHops(uint32_t p, uint32_t c) const
    {
        return cfg.topology == Topology::Ring
            ? ringTaskHops(p, c)
            : meshTaskHops(p, c, cfg.numStages, meshXr, meshYr);
    }

    /**
     * Earliest cycle after the current one at which a time-gated
     * predicate can change behavior: sequencer recovery completes, a
     * stage's squash penalty elapses, an in-flight op becomes ready
     * once its producers' results arrive over the ring, the head task's
     * last completion lands (commit), or the synchronizer fires a timed
     * wakeup.  Blocked loads are excluded on purpose -- they are only
     * ever released by another op's activity.  Clamped to @p cap + 1
     * so a deadlocked machine hits the cap like the reference loop.
     */
    uint64_t nextInterestingCycle(uint64_t cap) const;

    // --- issue helpers ----------------------------------------------
    /** Try to issue a memory op; returns true if it issued (or became
     *  blocked -- in either case the window slot is handled). */
    bool tryIssueMem(SeqNum seq, unsigned &mem_ports);

    void executeLoad(SeqNum seq);
    void executeStore(SeqNum seq);

    // --- memory-ordering helpers ------------------------------------
    /**
     * Advance task @p t's storePtr past its executed stores and return
     * the seq of its first unexecuted store (UINT64_MAX when none).
     */
    uint64_t firstUnexecutedStore(uint32_t t);

    /** All stores of task @p t older than @p seq have executed. */
    bool taskStoresDoneBefore(uint32_t t, SeqNum seq);

    /** All stores older than @p seq in every active task executed. */
    bool allStoresDoneBefore(SeqNum seq);

    /**
     * Sequence number of the oldest unexecuted store across all
     * in-flight tasks (UINT64_MAX when none).  A blocked op @c seq is
     * frontier-releasable iff the bound is >= seq: tasks younger than
     * the op's own contribute only stores past its task's end, so the
     * global minimum decides exactly like the per-task walk in
     * allStoresDoneBefore().
     */
    uint64_t storeFrontierBound();

    // --- recovery -----------------------------------------------------
    /** @return true when the violation was absorbed benignly by a
     *  correct value prediction (no squash happened). */
    bool handleViolation(SeqNum load, SeqNum store);

    /** Squash @p squash_start and everything younger; older work in
     *  the same task survives (the paper squashes "the instructions
     *  following the load"). */
    void squashFrom(SeqNum squash_start);

    // --- classification (Table 8) -----------------------------------
    void classify(SeqNum load, bool predicted, bool actual);

    bool taskMispredicted(uint32_t task) const;

    TraceView trc;
    const DepOracle &oracle;
    const TaskSet &tasks;
    MultiscalarConfig cfg;

    /** Per-op completion-time and status lanes (SoA; the dense scans
     *  run as compare-mask kernels over the packed lanes). */
    OpLanes state;
    /** Woken operand state per op, kept by onIssued: when the last
     *  operand arrives (max over issued producers) and how many
     *  producers have not issued; kSrcWait mirrors a nonzero count. */
    std::vector<uint64_t> srcArrival;
    std::vector<uint8_t> srcPending;
    std::vector<TaskRun> taskRun;
    std::vector<Stage> stages;

    MemorySystem memsys;
    Arb arb;
    std::unique_ptr<DependencePolicy> policy;
    std::unique_ptr<DepSynchronizer> sync;

    // --- per-PE event frontier state --------------------------------
    /** Frontier fast path engaged (config flag minus the
     *  MDP_FRONTIER_REFERENCE kill switch). */
    bool frontierOn = false;
    /** Resolved mesh grid (0 when the topology is the ring). */
    unsigned meshXr = 0;
    unsigned meshYr = 0;
    /** Park time per stage; due stages are popped each cycle. */
    std::unique_ptr<EventFrontier> peFrontier;
    /** Scratch: ids popped due this cycle. */
    std::vector<uint32_t> dueBuf;
    /** This cycle's due stages as ring positions, ascending; the stage
     *  walk consumes it through dueCursor, and same-cycle wakes splice
     *  positions in behind the cursor. */
    std::vector<uint32_t> duePos;
    size_t dueCursor = 0;
    /** Stage is queued (unprocessed) in duePos this cycle. */
    std::vector<uint8_t> dueFlag;
    /** committedTasks % numStages, latched when the due set forms. */
    unsigned baseSlot = 0;
    /** Mutation counter behind act(); a stage whose step leaves it
     *  unchanged provably did nothing and parks at its exact next
     *  interesting cycle. */
    uint64_t actStamp = 0;

    /** Lazy (first possibly-unexecuted store, task) min-heap behind
     *  storeFrontierBoundFast(); std::greater order on the pair. */
    std::vector<std::pair<uint64_t, uint32_t>> storeHeap;

    // Blocked-op bookkeeping.
    std::vector<SeqNum> frontierBlocked;  ///< WAIT/NEVER waits
    std::vector<SeqNum> syncBlocked;      ///< MDST waits

    /**
     * Smallest seq in each blocked list (kNoSeq when empty).  A scan
     * can only release ops with seq <= bound, so while the min sits
     * above the bound the linear rescan is skipped outright -- the
     * dominant case on wide machines, where the bound moves every
     * commit but the blocked window trails far behind it.  Squash
     * erases only seqs >= squash_start, and the survivors' min is
     * recomputed there; a skipped scan therefore never misses a
     * releasable op, it only defers dropping already-cleared entries
     * (which release nothing either way).
     */
    SeqNum frontierBlockedMin = kNoSeq;
    SeqNum syncBlockedMin = kNoSeq;

    /**
     * Frontier-scan gating (same argument as the OoO model's): every
     * frontierBlocked entry has seq > lastFrontierBound, and the bound
     * only moves backwards across a squash (frontierDirty) -- task
     * assignment can drop it from "no unexecuted store" to a finite
     * value, but only when every blocked list is already empty, and the
     * bound comparison catches that case by itself.  syncBlocked ops
     * never checked the frontier at push time, so a push since the last
     * scan (syncPushed) forces a scan of that list.
     */
    uint64_t lastFrontierBound = 0;
    bool frontierDirty = true;
    bool syncPushed = false;

    // Hash map plus sorted drain: squash recovery visits keys in
    // SeqNum order via sortedKeys() so the walk never depends on the
    // hash layout; all other accesses are point lookups.
    std::unordered_map<SeqNum, std::vector<SeqNum>> psyncWaiters;

    // Sequencer state.
    uint64_t nextTask = 0;
    uint64_t committedTasks = 0;
    bool mispredictStall = false;
    uint64_t mispredictResume = 0;

    uint64_t cycle = 0;
    SimResult res;

    /** Deadlock-guard cycle cap (maxCycles or the trace-derived
     *  default), fixed at construction. */
    uint64_t capCycle = 0;

    /** Fast-forward enabled (config flag minus the env kill switch). */
    bool ffEnabled;
    /** Did the current cycle mutate any semantic state?  Every mutation
     *  site must set this; a cycle that ends with it clear is provably
     *  identical to the next, which is what licenses the jump. */
    bool cycleActivity = false;

    std::vector<LoadId> wakeupBuf;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_PROCESSOR_HH
