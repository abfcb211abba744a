/**
 * @file
 * Branch-light compare-mask kernels for the dense per-cycle loops of
 * the timing models, operating on the packed lanes of
 * base/soa_lanes.hh (and on the ARB's per-address load lanes).
 *
 * Every kernel has two implementations with bit-identical results: a
 * portable scalar loop (the semantic reference, compiled and tested
 * everywhere) and an AVX2 path selected at runtime when the CPU
 * supports it.  Unsigned comparisons in the AVX2 paths use the
 * sign-flip trick, so there is no value-range precondition; results
 * are exact for the full uint64_t/uint32_t domain.
 *
 * Dispatch is process-wide: the AVX2 path runs iff the CPU supports
 * it.  forceLevel() is the test hook that pins either path; the
 * SoaKernels and SoaEquiv tests use it to check that both paths
 * produce identical results.
 */

#ifndef MDP_BASE_SIMD_KERNELS_HH
#define MDP_BASE_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace mdp
{
namespace simd
{

/** Implementation level of the dense-loop kernels. */
enum class SimdLevel
{
    Scalar,
    Avx2,
};

/** The level the kernels currently dispatch to (CPU detection, or
 *  the last forceLevel() override). */
SimdLevel activeLevel();

/** Human-readable name ("scalar" / "avx2"). */
const char *levelName(SimdLevel level);

/** True when the running CPU can execute the AVX2 path. */
bool avx2Supported();

/**
 * Test hook: pin the dispatch level for the rest of the process (the
 * differential tests run every kernel under both levels and compare).
 * Forcing Avx2 on a CPU without AVX2 support is ignored.
 */
void forceLevel(SimdLevel level);

/** 32-bit "none" sentinel (mirrors trace/microop.hh kNoSeq, which
 *  base cannot include). */
constexpr uint32_t kNone32 = UINT32_MAX;

namespace detail
{
/** Out-of-line dispatched implementations for long spans; the public
 *  kernels below inline a scalar loop for short ones. */
uint64_t minPendingDoneLarge(const uint64_t *done, const uint16_t *flags,
                             size_t begin, size_t end, uint16_t required,
                             uint64_t cycle);
size_t nextReadyCandidateLarge(const uint16_t *flags, size_t begin,
                               size_t end, uint16_t skip);
uint32_t maxStoreBelowLarge(const uint32_t *seqs, size_t n,
                            uint32_t bound);
uint32_t earliestViolatorLarge(const uint32_t *seqs,
                               const uint32_t *versions,
                               const uint32_t *tasks, size_t n,
                               uint32_t store, uint32_t store_task);
} // namespace detail

/** Spans at or below these element counts take the inline scalar loop
 *  rather than the dispatched vector path: the per-call level load,
 *  call, and AVX2 prologue cost more than a vector step saves on a
 *  handful of lanes, and the models' wakeup hops over a stage window
 *  are usually exactly that.  Long spans (the fast-forward scans, the
 *  micro kernels' 32K-lane arrays) still vectorize.  Both paths are
 *  exact over machine integers, so the cutover cannot change any
 *  observable; the differential tests cross it in both directions. */
constexpr size_t kInlineSpan64 = 16;   // uint64_t lanes, 4 per step
constexpr size_t kInlineSpan32 = 32;   // uint32_t lanes, 8 per step
constexpr size_t kInlineSpan16 = 64;   // uint16_t lanes, 16 per step

/**
 * Completion scan: the minimum done[i] over i in [begin, end) with
 * (flags[i] & required) != 0 and done[i] > cycle; UINT64_MAX when no
 * lane qualifies.  This is the fast-forward "next completion" probe
 * of both timing models.
 */
inline uint64_t
minPendingDone(const uint64_t *done, const uint16_t *flags,
               size_t begin, size_t end, uint16_t required,
               uint64_t cycle)
{
    if (end <= begin + kInlineSpan64) {
        uint64_t best = UINT64_MAX;
        for (size_t i = begin; i < end; ++i) {
            if ((flags[i] & required) && done[i] > cycle &&
                done[i] < best) {
                best = done[i];
            }
        }
        return best;
    }
    return detail::minPendingDoneLarge(done, flags, begin, end,
                                       required, cycle);
}

/**
 * Wakeup-match scan: the first index i in [begin, end) with
 * (flags[i] & skip) == 0, or end when every lane is flagged.  The
 * issue loops use it to hop over issued/blocked runs without
 * touching the completion lane.
 */
inline size_t
nextReadyCandidate(const uint16_t *flags, size_t begin, size_t end,
                   uint16_t skip)
{
    if (end <= begin + kInlineSpan16) {
        for (size_t i = begin; i < end; ++i) {
            if (!(flags[i] & skip))
                return i;
        }
        return end;
    }
    return detail::nextReadyCandidateLarge(flags, begin, end, skip);
}

/**
 * ARB version probe: the maximum seqs[i] strictly below @p bound over
 * i in [0, n), or kNone32 when no lane qualifies (the newest
 * in-flight store older than a load).
 */
inline uint32_t
maxStoreBelow(const uint32_t *seqs, size_t n, uint32_t bound)
{
    if (n <= kInlineSpan32) {
        uint32_t best = kNone32;
        bool found = false;
        for (size_t i = 0; i < n; ++i) {
            if (seqs[i] < bound && (!found || seqs[i] > best)) {
                best = seqs[i];
                found = true;
            }
        }
        return found ? best : kNone32;
    }
    return detail::maxStoreBelowLarge(seqs, n, bound);
}

/**
 * ARB violation probe over the per-address load lanes: the minimum
 * seqs[i] with seqs[i] > store, tasks[i] > store_task, and
 * (versions[i] == kNone32 or versions[i] < store); kNone32 when the
 * store violated nothing.
 */
inline uint32_t
earliestViolator(const uint32_t *seqs, const uint32_t *versions,
                 const uint32_t *tasks, size_t n, uint32_t store,
                 uint32_t store_task)
{
    if (n <= kInlineSpan32) {
        uint32_t best = kNone32;
        for (size_t i = 0; i < n; ++i) {
            if (seqs[i] > store && tasks[i] > store_task &&
                (versions[i] == kNone32 || versions[i] < store) &&
                seqs[i] < best) {
                best = seqs[i];
            }
        }
        return best;
    }
    return detail::earliestViolatorLarge(seqs, versions, tasks, n,
                                         store, store_task);
}

} // namespace simd
} // namespace mdp

#endif // MDP_BASE_SIMD_KERNELS_HH
