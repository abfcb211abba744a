#include "base/simd_kernels.hh"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#define MDP_HAVE_AVX2_PATH 1
#include <immintrin.h>
#else
#define MDP_HAVE_AVX2_PATH 0
#endif

namespace mdp
{
namespace simd
{

namespace
{

// ---------------------------------------------------------------------
// Scalar reference paths (the semantic definition of every kernel)
// ---------------------------------------------------------------------

uint64_t
minPendingDoneScalar(const uint64_t *done, const uint16_t *flags,
                     size_t begin, size_t end, uint16_t required,
                     uint64_t cycle)
{
    uint64_t best = UINT64_MAX;
    for (size_t i = begin; i < end; ++i) {
        if ((flags[i] & required) && done[i] > cycle && done[i] < best)
            best = done[i];
    }
    return best;
}

size_t
nextReadyCandidateScalar(const uint16_t *flags, size_t begin, size_t end,
                         uint16_t skip)
{
    for (size_t i = begin; i < end; ++i) {
        if (!(flags[i] & skip))
            return i;
    }
    return end;
}

uint32_t
maxStoreBelowScalar(const uint32_t *seqs, size_t n, uint32_t bound)
{
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

uint32_t
earliestViolatorScalar(const uint32_t *seqs, const uint32_t *versions,
                       const uint32_t *tasks, size_t n, uint32_t store,
                       uint32_t store_task)
{
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

#if MDP_HAVE_AVX2_PATH

// ---------------------------------------------------------------------
// AVX2 paths.  Unsigned comparisons flip the sign bit and compare
// signed (x ^ MIN preserves unsigned order in the signed domain);
// every reduction carries a sentinel that maps back to "none".
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) uint64_t
minPendingDoneAvx2(const uint64_t *done, const uint16_t *flags,
                   size_t begin, size_t end, uint16_t required,
                   uint64_t cycle)
{
    const __m256i flip = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    const __m256i vcycle = _mm256_set1_epi64x(
        static_cast<long long>(cycle ^ 0x8000000000000000ull));
    const __m256i vreq =
        _mm256_set1_epi64x(static_cast<long long>(required));
    const __m256i zero = _mm256_setzero_si256();
    // Sentinel: UINT64_MAX in the flipped domain is INT64_MAX.
    __m256i vbest = _mm256_set1_epi64x(INT64_MAX);

    size_t i = begin;
    for (; i + 4 <= end; i += 4) {
        __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(done + i));
        __m128i f16 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(flags + i));
        __m256i f = _mm256_cvtepu16_epi64(f16);
        // Lanes with (flags & required) == 0 are out.
        __m256i out =
            _mm256_cmpeq_epi64(_mm256_and_si256(f, vreq), zero);
        __m256i dflip = _mm256_xor_si256(d, flip);
        __m256i pending = _mm256_cmpgt_epi64(dflip, vcycle);
        __m256i valid = _mm256_andnot_si256(out, pending);
        __m256i cand = _mm256_blendv_epi8(
            _mm256_set1_epi64x(INT64_MAX), dflip, valid);
        __m256i keep = _mm256_cmpgt_epi64(vbest, cand);
        vbest = _mm256_blendv_epi8(vbest, cand, keep);
    }

    alignas(32) long long lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), vbest);
    long long m = std::min(std::min(lanes[0], lanes[1]),
                           std::min(lanes[2], lanes[3]));
    uint64_t best =
        static_cast<uint64_t>(m) ^ 0x8000000000000000ull;
    for (; i < end; ++i) {
        if ((flags[i] & required) && done[i] > cycle && done[i] < best)
            best = done[i];
    }
    return best;
}

__attribute__((target("avx2"))) size_t
nextReadyCandidateAvx2(const uint16_t *flags, size_t begin, size_t end,
                       uint16_t skip)
{
    const __m256i vskip = _mm256_set1_epi16(static_cast<short>(skip));
    const __m256i zero = _mm256_setzero_si256();
    size_t i = begin;
    for (; i + 16 <= end; i += 16) {
        __m256i f = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(flags + i));
        __m256i hit =
            _mm256_cmpeq_epi16(_mm256_and_si256(f, vskip), zero);
        unsigned m = static_cast<unsigned>(_mm256_movemask_epi8(hit));
        if (m) {
            // cmpeq fills whole 16-bit lanes, so the byte mask comes
            // in pairs; the first set bit names the lane directly.
            return i + (static_cast<size_t>(__builtin_ctz(m)) >> 1);
        }
    }
    for (; i < end; ++i) {
        if (!(flags[i] & skip))
            return i;
    }
    return end;
}

__attribute__((target("avx2"))) uint32_t
maxStoreBelowAvx2(const uint32_t *seqs, size_t n, uint32_t bound)
{
    const __m256i flip = _mm256_set1_epi32(
        static_cast<int>(0x80000000u));
    const __m256i vbound =
        _mm256_set1_epi32(static_cast<int>(bound ^ 0x80000000u));
    __m256i vbest = _mm256_setzero_si256();
    __m256i vfound = _mm256_setzero_si256();

    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(seqs + i));
        __m256i sflip = _mm256_xor_si256(s, flip);
        __m256i valid = _mm256_cmpgt_epi32(vbound, sflip);
        vfound = _mm256_or_si256(vfound, valid);
        // Invalid lanes contribute 0, which max_epu32 ignores as long
        // as found-ness is tracked separately (a valid seq can be 0).
        __m256i cand = _mm256_and_si256(s, valid);
        vbest = _mm256_max_epu32(vbest, cand);
    }

    bool found = _mm256_movemask_epi8(vfound) != 0;
    alignas(32) uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), vbest);
    uint32_t best = 0;
    for (uint32_t lane : lanes)
        best = std::max(best, lane);
    for (; i < n; ++i) {
        if (seqs[i] < bound && (!found || seqs[i] > best)) {
            best = seqs[i];
            found = true;
        }
    }
    return found ? best : kNone32;
}

__attribute__((target("avx2"))) uint32_t
earliestViolatorAvx2(const uint32_t *seqs, const uint32_t *versions,
                     const uint32_t *tasks, size_t n, uint32_t store,
                     uint32_t store_task)
{
    const __m256i flip = _mm256_set1_epi32(
        static_cast<int>(0x80000000u));
    const __m256i vstore =
        _mm256_set1_epi32(static_cast<int>(store ^ 0x80000000u));
    const __m256i vtask =
        _mm256_set1_epi32(static_cast<int>(store_task ^ 0x80000000u));
    const __m256i vnone = _mm256_set1_epi32(-1);
    // Sentinel kNone32 survives min_epu32 untouched and *is* the
    // "no violator" return value.
    __m256i vbest = vnone;

    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(seqs + i));
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(versions + i));
        __m256i t = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tasks + i));
        __m256i younger =
            _mm256_cmpgt_epi32(_mm256_xor_si256(s, flip), vstore);
        __m256i later =
            _mm256_cmpgt_epi32(_mm256_xor_si256(t, flip), vtask);
        __m256i stale = _mm256_or_si256(
            _mm256_cmpeq_epi32(v, vnone),
            _mm256_cmpgt_epi32(vstore, _mm256_xor_si256(v, flip)));
        __m256i cond =
            _mm256_and_si256(younger, _mm256_and_si256(later, stale));
        __m256i cand = _mm256_blendv_epi8(vnone, s, cond);
        vbest = _mm256_min_epu32(vbest, cand);
    }

    alignas(32) uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), vbest);
    uint32_t best = kNone32;
    for (uint32_t lane : lanes)
        best = std::min(best, lane);
    for (; i < n; ++i) {
        if (seqs[i] > store && tasks[i] > store_task &&
            (versions[i] == kNone32 || versions[i] < store) &&
            seqs[i] < best) {
            best = seqs[i];
        }
    }
    return best;
}

#endif // MDP_HAVE_AVX2_PATH

SimdLevel
detectLevel()
{
    return avx2Supported() ? SimdLevel::Avx2 : SimdLevel::Scalar;
}

SimdLevel &
levelRef()
{
    static SimdLevel level = detectLevel();
    return level;
}

} // namespace

bool
avx2Supported()
{
#if MDP_HAVE_AVX2_PATH
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

SimdLevel
activeLevel()
{
    return levelRef();
}

const char *
levelName(SimdLevel level)
{
    return level == SimdLevel::Avx2 ? "avx2" : "scalar";
}

void
forceLevel(SimdLevel level)
{
    if (level == SimdLevel::Avx2 && !avx2Supported())
        return;
    levelRef() = level;
}

namespace detail
{

uint64_t
minPendingDoneLarge(const uint64_t *done, const uint16_t *flags,
                    size_t begin, size_t end, uint16_t required,
                    uint64_t cycle)
{
#if MDP_HAVE_AVX2_PATH
    if (activeLevel() == SimdLevel::Avx2)
        return minPendingDoneAvx2(done, flags, begin, end, required,
                                  cycle);
#endif
    return minPendingDoneScalar(done, flags, begin, end, required,
                                cycle);
}

size_t
nextReadyCandidateLarge(const uint16_t *flags, size_t begin, size_t end,
                        uint16_t skip)
{
#if MDP_HAVE_AVX2_PATH
    if (activeLevel() == SimdLevel::Avx2)
        return nextReadyCandidateAvx2(flags, begin, end, skip);
#endif
    return nextReadyCandidateScalar(flags, begin, end, skip);
}

uint32_t
maxStoreBelowLarge(const uint32_t *seqs, size_t n, uint32_t bound)
{
#if MDP_HAVE_AVX2_PATH
    if (activeLevel() == SimdLevel::Avx2)
        return maxStoreBelowAvx2(seqs, n, bound);
#endif
    return maxStoreBelowScalar(seqs, n, bound);
}

uint32_t
earliestViolatorLarge(const uint32_t *seqs, const uint32_t *versions,
                      const uint32_t *tasks, size_t n, uint32_t store,
                      uint32_t store_task)
{
#if MDP_HAVE_AVX2_PATH
    if (activeLevel() == SimdLevel::Avx2)
        return earliestViolatorAvx2(seqs, versions, tasks, n, store,
                                    store_task);
#endif
    return earliestViolatorScalar(seqs, versions, tasks, n, store,
                                  store_task);
}

} // namespace detail

} // namespace simd
} // namespace mdp
