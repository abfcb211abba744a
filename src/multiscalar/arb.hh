/**
 * @file
 * Address Resolution Buffer: tracks speculatively executed loads and
 * in-flight store versions per address, detecting memory dependence
 * violations (after Franklin & Sohi's ARB, which the simulated
 * Multiscalar uses for disambiguation).
 */

#ifndef MDP_MULTISCALAR_ARB_HH
#define MDP_MULTISCALAR_ARB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/microop.hh"

namespace mdp
{

/**
 * Violation detector and version oracle over the in-flight window.
 *
 * Addresses arrive as the trace's dense ids (DepOracle::addrId), so
 * every per-address table is a direct-indexed vector: no operation
 * hashes, and a probe touches one slot at any machine width.
 *
 * A load whose id is kNoAddr has no older store to its address.  Both
 * timing models commit in order, so every store that has committed
 * when it executes is older, and it observes kNoSeq; a store only
 * violates younger loads, so it can never be a violator.  Such a load
 * is therefore not recorded, and the load-side calls ignore it.
 *
 * The owner calls loadExecuted()/storeExecuted() at execution,
 * commit*() at task commit, and remove*() for squashed operations.
 */
class Arb
{
  public:
    /** @param num_addrs the id space, DepOracle::numAddrs(). */
    explicit Arb(size_t num_addrs);

    /**
     * Record an executing load and determine the version (store
     * sequence number) it observes: the newest executed or committed
     * store to the address older than the load, kNoSeq if none.
     */
    SeqNum loadExecuted(AddrId id, SeqNum load, uint32_t load_task);

    /**
     * Record an executing store and check for violations.  A store's
     * id is never kNoAddr.
     * @return the sequence number of the *earliest* executed load that
     * (a) is younger than the store, (b) belongs to a later task, and
     * (c) observed a version older than this store -- or kNoSeq when
     * the speculation was safe.
     */
    SeqNum storeExecuted(AddrId id, SeqNum store, uint32_t store_task);

    /**
     * Re-scan for a violator without re-recording the store (used
     * after a benign value-predicted violation is absorbed).
     */
    SeqNum findViolator(AddrId id, SeqNum store,
                        uint32_t store_task) const;

    /**
     * Update a load's observed version to @p version: a value
     * prediction absorbed the store's effect, so the load now counts
     * as having seen it.
     */
    void refreshLoadVersion(AddrId id, SeqNum load, SeqNum version);

    /** Retire a load: it can no longer be violated. */
    void commitLoad(AddrId id, SeqNum load);

    /** Retire a store: fold it into the committed version. */
    void commitStore(AddrId id, SeqNum store);

    /** Remove a squashed, previously executed load. */
    void removeLoad(AddrId id, SeqNum load);

    /** Remove a squashed, previously executed store. */
    void removeStore(AddrId id, SeqNum store);

    void reset();

    /** In-flight tracked loads (for tests / invariant checks). */
    size_t trackedLoads() const { return numTrackedLoads; }

  private:
    /**
     * Per-address executed-load records in SoA form: three parallel
     * lanes (sequence number, observed version, owning task) so the
     * violation probe runs as one compare-mask kernel over packed
     * 32-bit lanes instead of striding over 12-byte records.  Lanes
     * keep their capacity when they empty, so refills after commit
     * do not allocate.
     */
    struct LoadLanes
    {
        std::vector<SeqNum> seq;
        std::vector<SeqNum> version;
        std::vector<uint32_t> task;

        size_t size() const { return seq.size(); }

        void
        push(SeqNum s, SeqNum v, uint32_t t)
        {
            seq.push_back(s);
            version.push_back(v);
            task.push_back(t);
        }

        /** Drop every record whose seq matches, keeping lane order.
         *  @return the number dropped. */
        size_t eraseSeq(SeqNum s);
    };

    // All three indexed by address id.
    std::vector<LoadLanes> loads;
    std::vector<std::vector<SeqNum>> inflightStores;
    std::vector<SeqNum> committedVersion;
    size_t numTrackedLoads = 0;
};

} // namespace mdp

#endif // MDP_MULTISCALAR_ARB_HH
