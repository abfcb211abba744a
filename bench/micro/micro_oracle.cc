/**
 * @file
 * Kernels for the trace-analysis side: DepOracle construction (the
 * address-map build every workload pays once per context) and ARB
 * churn (the per-access version bookkeeping of the Multiscalar's
 * disambiguation hardware).
 */

#include <vector>

#include "micro_common.hh"
#include "multiscalar/arb.hh"
#include "trace/dep_oracle.hh"

using namespace mdp;

namespace
{

uint64_t
oracleBuildKernel(const WorkloadContext &ctx)
{
    uint64_t sum = 0;
    // Several rebuilds per repetition: a single build at micro scale
    // is around a millisecond, inside timer noise.
    for (int round = 0; round < 8; ++round) {
        DepOracle oracle(ctx.trace());
        sum = mixChecksum(sum, mixChecksum(oracle.loads().size(),
                                           oracle.stores().size()));
        const std::vector<SeqNum> &loads = oracle.loads();
        const size_t stride =
            loads.empty() ? 1 : 1 + loads.size() / 64;
        for (size_t i = 0; i < loads.size(); i += stride)
            sum = mixChecksum(sum, oracle.producer(loads[i]));
    }
    return sum;
}

uint64_t
arbChurnKernel()
{
    Arb arb(1024);
    uint64_t sum = 0;
    SeqNum seq = 0;
    for (uint64_t it = 0; it < 400000; ++it) {
        // Deterministic pseudo-random stream over 1024 address ids.
        const AddrId id = static_cast<AddrId>((it * 2654435761ULL) & 0x3FF);
        const uint32_t task = static_cast<uint32_t>(it >> 6);
        if (it % 3 == 0) {
            sum = mixChecksum(sum, arb.storeExecuted(id, seq, task));
            arb.commitStore(id, seq);
        } else {
            sum = mixChecksum(sum, arb.loadExecuted(id, seq, task));
            arb.commitLoad(id, seq);
        }
        ++seq;
    }
    return mixChecksum(sum, arb.trackedLoads());
}

} // namespace

int
main()
{
    MicroSuite suite("micro_oracle",
                     "DepOracle build and ARB bookkeeping "
                     "(Moshovos et al., ISCA'97, sections 3, 5.2)");

    const double scale = envDouble("MDP_MICRO_SCALE", 0.05);
    const WorkloadContext &ctx = cachedContext("compress", scale);

    suite.kernel("oracle_build",
                 [&] { return oracleBuildKernel(ctx); });
    suite.kernel("arb_churn", arbChurnKernel);

    return suite.finish();
}
