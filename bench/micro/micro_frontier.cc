/**
 * @file
 * Microbenchmark of the per-PE event-frontier scheduler against the
 * global-scan reference it replaces at 8 / 256 / 1024 PEs, plus the
 * ARB's probe path.
 *
 * Scheduler pair: both kernels drain the *same* deterministic event
 * schedule -- a small active set re-arming at pseudo-random distances
 * over an otherwise idle machine -- and fold (cycle, id) into a
 * checksum in identical order, so the checksums must match pairwise.
 * The frontier kernel pays O(events) via the bucket wheel; the
 * reference kernel pays an O(num_pes) sweep per event cycle (the
 * nextInterestingCycle() cost shape), so the gap widens with machine
 * size.  CI gates the 1024-PE pair at >= 10x.
 *
 * ARB kernel: one probe stream (loads, stores, periodic resets)
 * through one direct-indexed Arb, run once per machine size so the
 * kernel keeps the arb_probe_<n>shard names of the sharded ARB it
 * replaced (the CI perf gate fails on a phase the merge base has and
 * this run lacks).  The three runs are identical, so all three
 * checksums must be equal.
 */

#include "micro_common.hh"

#include <algorithm>
#include <vector>

#include "base/event_frontier.hh"
#include "multiscalar/arb.hh"

using namespace mdp;

namespace
{

constexpr uint64_t kEvents = 150000;  ///< events drained per kernel
constexpr uint32_t kMix = 2654435761u;

/** Active-PE count for an @p n -wide machine: idle-heavy by design. */
unsigned
activeOf(unsigned n)
{
    return std::max(2u, n / 64);
}

/** Re-arm distance after an id's @p nth event (1..197 cycles). */
uint64_t
rearm(uint32_t id, uint64_t nth)
{
    return 1 + ((id * kMix + nth) % 197);
}

/** Drain the schedule through the bucketed frontier. */
uint64_t
frontierKernel(unsigned n)
{
    EventFrontier f(n);
    const unsigned active = activeOf(n);
    for (uint32_t id = 0; id < active; ++id)
        f.schedule(id, 1 + id % 7);

    uint64_t h = 0, events = 0;
    std::vector<uint32_t> due;
    while (events < kEvents) {
        uint64_t t;
        uint32_t first;
        if (!f.peekMin(t, first))
            break;
        due.clear();
        f.popDue(t, due);
        std::sort(due.begin(), due.end());
        for (uint32_t id : due) {
            h = mixChecksum(h, t ^ id);
            ++events;
            f.schedule(id, t + rearm(id, events));
        }
    }
    return mixChecksum(h, events);
}

/** Drain the same schedule via a full per-event-cycle array sweep. */
uint64_t
scanKernel(unsigned n)
{
    std::vector<uint64_t> next(n, EventFrontier::kUnscheduled);
    const unsigned active = activeOf(n);
    for (uint32_t id = 0; id < active; ++id)
        next[id] = 1 + id % 7;

    uint64_t h = 0, events = 0;
    while (events < kEvents) {
        // The reference cost shape: every idle gap is bridged by a
        // min-scan over all ids, due ids found by a second full pass.
        uint64_t t = EventFrontier::kUnscheduled;
        for (unsigned id = 0; id < n; ++id)
            t = std::min(t, next[id]);
        if (t == EventFrontier::kUnscheduled)
            break;
        for (uint32_t id = 0; id < n; ++id) {
            if (next[id] != t)
                continue;
            h = mixChecksum(h, t ^ id);
            ++events;
            next[id] = t + rearm(id, events);
        }
    }
    return mixChecksum(h, events);
}

/**
 * One fixed probe stream against the ARB: interleaved load/store
 * executions over a scrambled space of 65536 address ids, with
 * periodic resets so the tracked window stays bounded.  The checksum
 * folds in every observed version / violator.
 */
uint64_t
arbKernel()
{
    constexpr AddrId kIds = 65536;
    Arb arb(kIds);
    uint64_t h = 0;
    for (uint64_t i = 0; i < 400000; ++i) {
        AddrId id = static_cast<AddrId>((i * kMix) % kIds);
        SeqNum seq = static_cast<SeqNum>(i & 0xffffff);
        uint32_t task = static_cast<uint32_t>(i % 1024);
        SeqNum r = (i & 1)
                       ? arb.storeExecuted(id, seq, task)
                       : arb.loadExecuted(id, seq, task);
        h = mixChecksum(h, r);
        if ((i & 0xfff) == 0xfff) {
            h = mixChecksum(h, arb.trackedLoads());
            arb.reset();
        }
    }
    return h;
}

} // namespace

int
main()
{
    MicroSuite suite("micro_frontier",
                     "per-PE event frontier vs global scan");

    uint64_t arb_first = 0;
    for (unsigned n : {8u, 256u, 1024u}) {
        const std::string sz = std::to_string(n);
        uint64_t fsum =
            suite.kernel("frontier_wheel_" + sz,
                         [n] { return frontierKernel(n); });
        uint64_t ssum = suite.kernel("global_scan_" + sz,
                                     [n] { return scanKernel(n); });
        suite.check(fsum == ssum,
                    sz + " PEs: frontier and scan drain identical "
                         "schedules");

        uint64_t asum =
            suite.kernel("arb_probe_" + sz + "shard", arbKernel);
        if (n == 8)
            arb_first = asum;
        suite.check(asum == arb_first,
                    sz + ": the ARB probe stream is deterministic");
    }
    return suite.finish();
}
