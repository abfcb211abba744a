/**
 * @file
 * Exact memory-dependence oracle over a trace.
 *
 * For every load it computes the most recent preceding store to the same
 * address (the load's true producer).  The oracle is what the idealized
 * policies (PSYNC, WAIT-with-perfect-prediction) consult, what the
 * "unrealistic OoO" window model of section 5 counts with, and what the
 * Multiscalar ARB uses to attribute violations.  The same walk numbers
 * the stored-to addresses densely, so the ARB indexes per-address
 * state directly instead of hashing.
 */

#ifndef MDP_TRACE_DEP_ORACLE_HH
#define MDP_TRACE_DEP_ORACLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace.hh"

namespace mdp
{

/**
 * Precomputed last-writer information for all loads of a trace.
 */
class DepOracle
{
  public:
    /** Build the oracle; O(n) expected over the trace. */
    explicit DepOracle(const TraceView &trace);

    /**
     * @return the sequence number of the most recent store before @p
     * load_seq writing the load's address, or kNoSeq if the location
     * was never previously written.
     */
    SeqNum producer(SeqNum load_seq) const { return producers[load_seq]; }

    /** @return true if the load has a producer store in the trace. */
    bool hasProducer(SeqNum load_seq) const
    {
        return producers[load_seq] != kNoSeq;
    }

    /**
     * @return true if the load's producer lies within @p window
     * dynamic instructions before it (the unrealistic-OoO criterion:
     * such a load would always mis-speculate in a perfect continuous
     * window of that size).
     */
    bool
    producerWithin(SeqNum load_seq, uint32_t window) const
    {
        SeqNum p = producers[load_seq];
        return p != kNoSeq && load_seq - p < window;
    }

    /**
     * @return true if the load's producer is in a different (earlier)
     * task -- an inter-task dependence, the only kind Multiscalar
     * speculates on.
     */
    bool interTask(SeqNum load_seq) const;

    /** Dependence distance in tasks (0 when intra-task / no producer). */
    uint32_t taskDistance(SeqNum load_seq) const;

    /**
     * Dense id of the address @p seq accesses, assigned in first-store
     * order so that equal addresses share an id.  A store always has
     * one.  A load has its address's id when an older store wrote that
     * address, and kNoAddr otherwise (as does every non-memory op);
     * the ARB need not track such a load (see Arb).
     */
    AddrId addrId(SeqNum seq) const { return addrIds[seq]; }

    /** Number of distinct stored-to addresses: ids are < this. */
    size_t numAddrs() const { return numIds; }

    /** All loads of the trace, in program order. */
    const std::vector<SeqNum> &loads() const { return loadSeqs; }

    /** All stores of the trace, in program order. */
    const std::vector<SeqNum> &stores() const { return storeSeqs; }

  private:
    TraceView trc;
    /** Indexed by sequence number; only meaningful at load positions. */
    std::vector<SeqNum> producers;
    /** Indexed by sequence number; kNoAddr off the id space. */
    std::vector<AddrId> addrIds;
    size_t numIds = 0;
    std::vector<SeqNum> loadSeqs;
    std::vector<SeqNum> storeSeqs;
};

} // namespace mdp

#endif // MDP_TRACE_DEP_ORACLE_HH
