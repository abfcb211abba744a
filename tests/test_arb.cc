/**
 * @file
 * Tests for the ARB (violation detection / version tracking), checked
 * also against the address-keyed reference in reference_arb.hh, and
 * the banked memory system timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/random.hh"
#include "multiscalar/arb.hh"
#include "multiscalar/memsys.hh"
#include "reference_arb.hh"
#include "trace/builder.hh"
#include "trace/dep_oracle.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// Arb
// --------------------------------------------------------------------

// Two address ids, as DepOracle::addrId hands them out.
constexpr AddrId kA = 0;
constexpr AddrId kB = 1;

TEST(Arb, NoViolationWithoutLoads)
{
    Arb arb(2);
    EXPECT_EQ(arb.storeExecuted(kA, 10, 1), kNoSeq);
}

TEST(Arb, DetectsYoungerLoadThatMissedTheStore)
{
    Arb arb(2);
    // Load (seq 20, task 2) executes before store (seq 10, task 1).
    arb.loadExecuted(kA, 20, 2);
    EXPECT_EQ(arb.storeExecuted(kA, 10, 1), 20u);
}

TEST(Arb, NoViolationAcrossDifferentAddresses)
{
    Arb arb(2);
    arb.loadExecuted(kA, 20, 2);
    EXPECT_EQ(arb.storeExecuted(kB, 10, 1), kNoSeq);
}

TEST(Arb, NoViolationForOlderLoad)
{
    Arb arb(2);
    arb.loadExecuted(kA, 5, 0);   // load is older than the store
    EXPECT_EQ(arb.storeExecuted(kA, 10, 1), kNoSeq);
}

TEST(Arb, NoViolationWithinOneTask)
{
    Arb arb(2);
    arb.loadExecuted(kA, 20, 1);
    // Same task: intra-task order is enforced by the core, not the ARB.
    EXPECT_EQ(arb.storeExecuted(kA, 10, 1), kNoSeq);
}

TEST(Arb, LoadThatSawTheStoreIsSafe)
{
    Arb arb(2);
    arb.storeExecuted(kA, 10, 1);
    SeqNum version = arb.loadExecuted(kA, 20, 2);
    EXPECT_EQ(version, 10u);
    // Re-executing the same store (squash path) must not flag the load
    // because the load's version is not older than the store.
    EXPECT_EQ(arb.storeExecuted(kA, 10, 1), kNoSeq);
}

TEST(Arb, OlderStoreAfterNewerVersionStillSafe)
{
    Arb arb(2);
    arb.storeExecuted(kA, 15, 1);
    SeqNum version = arb.loadExecuted(kA, 20, 2);
    EXPECT_EQ(version, 15u);
    // An older store arriving late does not violate: the load's value
    // came from a newer store.
    EXPECT_EQ(arb.storeExecuted(kA, 10, 0), kNoSeq);
}

TEST(Arb, ReturnsEarliestViolator)
{
    Arb arb(2);
    arb.loadExecuted(kA, 30, 3);
    arb.loadExecuted(kA, 20, 2);
    EXPECT_EQ(arb.storeExecuted(kA, 10, 1), 20u);
}

TEST(Arb, CommittedVersionVisibleToLaterLoads)
{
    Arb arb(2);
    arb.storeExecuted(kA, 10, 1);
    arb.commitStore(kA, 10);
    SeqNum version = arb.loadExecuted(kA, 20, 2);
    EXPECT_EQ(version, 10u);
}

TEST(Arb, CommitLoadRemovesItFromChecks)
{
    Arb arb(2);
    arb.loadExecuted(kA, 20, 2);
    arb.commitLoad(kA, 20);
    EXPECT_EQ(arb.storeExecuted(kA, 10, 1), kNoSeq);
    EXPECT_EQ(arb.trackedLoads(), 0u);
}

TEST(Arb, RemoveLoadAndStoreForSquash)
{
    Arb arb(2);
    arb.loadExecuted(kA, 20, 2);
    arb.removeLoad(kA, 20);
    EXPECT_EQ(arb.storeExecuted(kA, 10, 1), kNoSeq);

    arb.removeStore(kA, 10);
    SeqNum version = arb.loadExecuted(kA, 30, 3);
    EXPECT_EQ(version, kNoSeq);   // the store is gone
}

TEST(Arb, ResetClears)
{
    Arb arb(2);
    arb.loadExecuted(kA, 20, 2);
    arb.storeExecuted(kA, 5, 0);
    arb.reset();
    EXPECT_EQ(arb.trackedLoads(), 0u);
    SeqNum version = arb.loadExecuted(kA, 30, 3);
    EXPECT_EQ(version, kNoSeq);
}

TEST(Arb, NoAddrLoadIsNotTracked)
{
    Arb arb(1);
    EXPECT_EQ(arb.loadExecuted(kNoAddr, 20, 2), kNoSeq);
    EXPECT_EQ(arb.trackedLoads(), 0u);
    // The load-side calls ignore it.
    arb.refreshLoadVersion(kNoAddr, 20, 10);
    arb.commitLoad(kNoAddr, 20);
    arb.removeLoad(kNoAddr, 20);
    EXPECT_EQ(arb.trackedLoads(), 0u);
}

// --------------------------------------------------------------------
// Arb against the address-keyed reference
// --------------------------------------------------------------------

/**
 * Loads and stores over a small address pool.  The last two addresses
 * are only ever loaded, and many loads precede the first store to
 * their address, so a good share of loads map to kNoAddr.
 */
Trace
randomMemTrace(Pcg32 &rng)
{
    TraceBuilder b("arb_diff");
    const unsigned num_tasks = 4 + rng.below(12);
    for (unsigned t = 0; t < num_tasks; ++t) {
        b.beginTask(0x1000 + t * 0x40);
        const unsigned ops = 1 + rng.below(12);
        for (unsigned i = 0; i < ops; ++i) {
            const uint32_t slot = rng.below(12);
            const Addr addr = 0x8000 + slot * 8;
            if (slot >= 10 || rng.below(5) < 3)
                b.load(0x100 + i * 4, addr);
            else
                b.store(0x200 + i * 4, addr);
        }
    }
    return b.take();
}

/**
 * Drives one random execute / commit / squash / refresh stream
 * through the reference (raw addresses) and the dense Arb (oracle
 * ids) in lockstep and checks that every returned version and
 * violator is equal.  Commit is in order, as in both timing models:
 * per op with per-op tasks (the OoO convention), or per task with
 * its loads before its stores (the Multiscalar convention).
 */
class ArbLockstep
{
  public:
    ArbLockstep(const TraceView &trace, const DepOracle &dep_oracle,
                bool per_op_tasks)
        : trc(trace), oracle(dep_oracle), dense(dep_oracle.numAddrs()),
          perOp(per_op_tasks), executed(trace.size(), false)
    {
    }

    void
    run(Pcg32 &rng)
    {
        const SeqNum n = static_cast<SeqNum>(trc.size());
        const SeqNum window = 4 + rng.below(29);
        for (unsigned step = 0; step < 20000 && head < n; ++step) {
            const SeqNum end = std::min(n, head + window);
            const SeqNum s = head + rng.below(end - head);
            switch (rng.below(10)) {
              case 0: case 1: case 2: case 3: case 4:
                if (!executed[s])
                    execute(s, rng);
                break;
              case 5: case 6:
                commit();
                break;
              case 7:
                squashFrom(s);
                break;
              case 8:
                if (executed[s] && trc.isStore(s)) {
                    ASSERT_EQ(ref.findViolator(trc.addr(s), s, task(s)),
                              dense.findViolator(id(s), s, task(s)));
                }
                break;
              default:
                if (executed[s] && trc.isLoad(s) && s > 0) {
                    const SeqNum version = rng.below(s);
                    ref.refreshLoadVersion(trc.addr(s), s, version);
                    dense.refreshLoadVersion(id(s), s, version);
                }
                break;
            }
            checkTracked();
            if (testing::Test::HasFatalFailure())
                return;
        }
        // Drain: execute what is left and commit it all.
        while (head < n) {
            for (SeqNum s = head; s < n; ++s) {
                if (!executed[s])
                    execute(s, rng);
            }
            commit();
            checkTracked();
            if (testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_EQ(dense.trackedLoads(), 0u);
        EXPECT_EQ(ref.trackedLoads(), 0u);
    }

    uint64_t noAddrLoads = 0;   ///< executions of kNoAddr loads
    uint64_t violations = 0;

  private:
    uint32_t task(SeqNum s) const { return perOp ? s : trc.taskId(s); }
    AddrId id(SeqNum s) const { return oracle.addrId(s); }

    void
    execute(SeqNum s, Pcg32 &rng)
    {
        executed[s] = true;
        if (trc.isLoad(s)) {
            if (id(s) == kNoAddr) {
                ++noAddrLoads;
                ++noAddrLive;
            }
            ASSERT_EQ(ref.loadExecuted(trc.addr(s), s, task(s)),
                      dense.loadExecuted(id(s), s, task(s)));
            return;
        }
        if (!trc.isStore(s))
            return;
        SeqNum violator = ref.storeExecuted(trc.addr(s), s, task(s));
        ASSERT_EQ(violator, dense.storeExecuted(id(s), s, task(s)));
        // A violation is either absorbed (the load's version is
        // refreshed and the store re-scans) or squashes from the load.
        while (violator != kNoSeq) {
            ++violations;
            if (rng.below(2) == 0) {
                squashFrom(violator);
                return;
            }
            ref.refreshLoadVersion(trc.addr(violator), violator, s);
            dense.refreshLoadVersion(id(violator), violator, s);
            violator = ref.findViolator(trc.addr(s), s, task(s));
            ASSERT_EQ(violator, dense.findViolator(id(s), s, task(s)));
        }
    }

    void
    squashFrom(SeqNum from)
    {
        for (SeqNum q = from; q < executed.size(); ++q) {
            if (!executed[q])
                continue;
            executed[q] = false;
            if (trc.isLoad(q)) {
                if (id(q) == kNoAddr)
                    --noAddrLive;
                ref.removeLoad(trc.addr(q), q);
                dense.removeLoad(id(q), q);
            } else if (trc.isStore(q)) {
                ref.removeStore(trc.addr(q), q);
                dense.removeStore(id(q), q);
            }
        }
    }

    /** Commit the head op, or the head task once all of it executed. */
    void
    commit()
    {
        SeqNum end = head + 1;
        if (!perOp) {
            while (end < executed.size() &&
                   trc.taskId(end) == trc.taskId(head)) {
                ++end;
            }
        }
        for (SeqNum q = head; q < end; ++q) {
            if (!executed[q])
                return;
        }
        for (SeqNum q = head; q < end; ++q) {
            if (!trc.isLoad(q))
                continue;
            if (id(q) == kNoAddr)
                --noAddrLive;
            ref.commitLoad(trc.addr(q), q);
            dense.commitLoad(id(q), q);
        }
        for (SeqNum q = head; q < end; ++q) {
            if (trc.isStore(q)) {
                ref.commitStore(trc.addr(q), q);
                dense.commitStore(id(q), q);
            }
        }
        head = end;
    }

    /** The dense Arb tracks every load the reference does, except
     *  those with no older store to their address. */
    void
    checkTracked()
    {
        ASSERT_EQ(dense.trackedLoads() + noAddrLive, ref.trackedLoads());
    }

    const TraceView &trc;
    const DepOracle &oracle;
    test::ReferenceArb ref;
    Arb dense;
    bool perOp;
    std::vector<bool> executed;
    SeqNum head = 0;
    size_t noAddrLive = 0;
};

TEST(Arb, MatchesAddressKeyedReference)
{
    uint64_t no_addr_loads = 0;
    uint64_t violations = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        for (bool per_op : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "seed=" << seed << " per_op=" << per_op);
            Pcg32 rng(seed);
            Trace t = randomMemTrace(rng);
            TraceView view(t);
            DepOracle oracle(view);
            ArbLockstep lockstep(view, oracle, per_op);
            lockstep.run(rng);
            if (HasFatalFailure())
                return;
            no_addr_loads += lockstep.noAddrLoads;
            violations += lockstep.violations;
        }
    }
    // The streams must reach both interesting cases.
    EXPECT_GT(no_addr_loads, 0u);
    EXPECT_GT(violations, 0u);
}

// --------------------------------------------------------------------
// MemorySystem
// --------------------------------------------------------------------

MultiscalarConfig
memConfig()
{
    MultiscalarConfig cfg;
    cfg.numStages = 4;
    cfg.banksPerStage = 2;
    cfg.bankHitLatency = 2;
    cfg.missPenalty = 13;
    cfg.busBusyPerMiss = 4;
    return cfg;
}

TEST(MemSys, FirstAccessMissesThenHits)
{
    MemorySystem m(memConfig());
    uint64_t t1 = m.access(0x1000, 100, false);
    EXPECT_EQ(m.misses(), 1u);
    EXPECT_GE(t1, 100 + 13u);
    uint64_t t2 = m.access(0x1000, 200, false);
    EXPECT_EQ(m.hits(), 1u);
    EXPECT_EQ(t2, 200 + 2u);
}

TEST(MemSys, SameLineSharesTheFill)
{
    MemorySystem m(memConfig());
    m.access(0x1000, 100, false);
    m.access(0x1008, 200, false);   // same 64-byte block
    EXPECT_EQ(m.hits(), 1u);
    EXPECT_EQ(m.misses(), 1u);
}

TEST(MemSys, StoresCompleteQuickly)
{
    MemorySystem m(memConfig());
    uint64_t t = m.access(0x2000, 100, true);
    // Write-allocate behind a buffer: no full miss penalty.
    EXPECT_LE(t, 100 + 6u);
    uint64_t t2 = m.access(0x2000, 200, true);
    EXPECT_EQ(t2, 200 + 1u);
}

TEST(MemSys, BankContentionSerializes)
{
    MemorySystem m(memConfig());
    // Two accesses to the same bank (8 banks -> lines 8 apart) in the
    // same cycle: the second queues behind the first.
    Addr a = 0x10000;
    Addr b = a + 64ull * 8;
    uint64_t t1 = m.access(a, 0, false);
    // Warm both lines so the second round is hit-only.
    m.access(b, 0, false);
    uint64_t h1 = m.access(a, 1000, false);
    uint64_t h2 = m.access(b, 1000, false);
    EXPECT_GT(h2, h1);   // bank busy: strictly later completion
    (void)t1;
}

TEST(MemSys, BusContentionDelaysMisses)
{
    MemorySystem m(memConfig());
    // Many simultaneous misses to different banks: the shared bus
    // serializes the fills at busBusyPerMiss cycles apiece.
    uint64_t last = 0;
    for (int i = 0; i < 8; ++i)
        last = std::max(last, m.access(0x40000 + i * 64, 0, false));
    EXPECT_GE(last, 13 + 7 * 4u);
}

TEST(MemSys, ResetRestoresColdCache)
{
    MemorySystem m(memConfig());
    m.access(0x1000, 0, false);
    m.reset();
    m.access(0x1000, 100, false);
    EXPECT_EQ(m.misses(), 1u);
    EXPECT_EQ(m.hits(), 0u);
}

} // namespace
} // namespace mdp
