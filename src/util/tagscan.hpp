/**
 * @file
 * Tag-array scan kernels shared by the SoA cache and TLB structures.
 *
 * The hot structures (cache/Cache, tlb/SetAssocTlb) keep their tags in
 * a contiguous array per set, so "is this tag resident?" is a short
 * linear scan. findTag() is that scan; with PCCSIM_SIMD_TAGSCAN (a
 * CMake feature flag that also supplies the -m flags) the compares run
 * 4 tags per AVX2 instruction / 2 per SSE2 instruction instead.
 * matchEight() is the one SSE2 compare: findTag's SSE2 path runs it
 * over each block of eight ways, and findTagSse2(), which the data
 * cache calls for its 8- and 16-way sets on every SSE2 build, turns
 * it straight into a way index.
 *
 * Both kernels are deliberately *branch-free across the ways*: an
 * early-exit compare loop looks cheaper but its exit way is data-
 * dependent on every probe of a random-access stream, so it pays a
 * branch mispredict per scan — the dominant cost of the whole timing
 * model. Accumulating a match mask and taking one well-predicted
 * hit/miss branch at the end is faster on every geometry used here
 * (4-16 ways), and is what lets the SIMD variants be bit-identical
 * drop-ins.
 *
 * Tags within one set are unique (inserts only happen after a failed
 * probe), so "any match" identifies the unique matching way.
 */

#pragma once

#include "util/types.hpp"

#if defined(PCCSIM_SIMD_TAGSCAN) && defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace pccsim::util {

#if defined(__SSE2__)
/**
 * Which of the eight tags at tags[0, 8) equal `tag`: bit 2w is set
 * where tags[w] does. The compares run two tags per instruction: the
 * 32-bit compares pack down to one bit per half tag, and a tag matches
 * where both of its halves do.
 */
inline u32
matchEight(const u64 *tags, u64 tag)
{
    const __m128i needle = _mm_set1_epi64x(static_cast<long long>(tag));
    const auto eq = [&](u32 i) {
        return _mm_cmpeq_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(tags + i)),
            needle);
    };
    const u32 halves = static_cast<u32>(_mm_movemask_epi8(
        _mm_packs_epi16(_mm_packs_epi32(eq(0), eq(2)),
                        _mm_packs_epi32(eq(4), eq(6)))));
    return halves & (halves >> 1) & 0x5555u;
}

/** findTag for a set of exactly 8 or 16 ways, on matchEight. */
template <u32 Ways>
inline int
findTagSse2(const u64 *tags, u64 tag)
{
    static_assert(Ways == 8 || Ways == 16, "8 or 16 ways");
    u32 pairs = matchEight(tags, tag);
    if constexpr (Ways == 16)
        pairs |= matchEight(tags + 8, tag) << 16;
    return pairs ? static_cast<int>(
                       static_cast<u32>(__builtin_ctz(pairs)) >> 1)
                 : -1;
}
#endif

/**
 * Index of `tag` within tags[0, ways), or a negative value when
 * absent. Caller guarantees at most one element matches and that
 * ways <= 32.
 */
inline int
findTag(const u64 *tags, u32 ways, u64 tag)
{
    u32 mask = 0;
    u32 w = 0;
#if defined(PCCSIM_SIMD_TAGSCAN) && defined(__AVX2__)
    const __m256i needle =
        _mm256_set1_epi64x(static_cast<long long>(tag));
    for (; w + 4 <= ways; w += 4) {
        const __m256i lane = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const u32 m = static_cast<u32>(_mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(lane, needle))));
        mask |= m << w;
    }
#elif defined(PCCSIM_SIMD_TAGSCAN) && defined(__SSE2__)
    for (; w + 8 <= ways; w += 8) {
        // Fold matchEight's even bits down to one bit per way.
        u32 m = matchEight(tags + w, tag);
        m = (m | (m >> 1)) & 0x3333u;
        m = (m | (m >> 2)) & 0x0F0Fu;
        m = (m | (m >> 4)) & 0x00FFu;
        mask |= m << w;
    }
#endif
    for (; w < ways; ++w)
        mask |= static_cast<u32>(tags[w] == tag) << w;
    return mask ? static_cast<int>(
                      static_cast<u32>(__builtin_ctz(mask)))
                : -1;
}

/**
 * The way with the smallest stamp, earliest index winning ties —
 * i.e. true-LRU victim selection over an SoA stamp array. Branch-free
 * (conditional moves), because the victim way of a miss stream is as
 * unpredictable as the hit way.
 *
 * Callers exploit one identity: never-filled ways carry stamp 0 while
 * every filled way has a unique stamp >= 1, so "earliest way with the
 * minimum stamp" is exactly "first empty way, else true-LRU way" —
 * the fill-before-evict rule without a separate empty-way scan.
 */
inline u32
findVictim(const u64 *stamps, u32 ways)
{
    u32 victim = 0;
    u64 oldest = stamps[0];
    for (u32 w = 1; w < ways; ++w) {
        const bool older = stamps[w] < oldest;
        victim = older ? w : victim;
        oldest = older ? stamps[w] : oldest;
    }
    return victim;
}

/** Outcome of one fused probe-or-victim set scan. */
struct ScanResult
{
    int hit_way;  //!< way holding the tag, or negative
    u32 victim;   //!< earliest-minimum-stamp way (see findVictim)
};

/**
 * findTag and findVictim in a single pass over the set: the two scans
 * read disjoint arrays but share loop structure, and the structures
 * here are miss-dominated (a miss needs both answers), so one fused
 * iteration beats two back-to-back loops. On a hit the victim half is
 * wasted work — cheap, branch-free cmovs — which the caller's MRU
 * fast path already shields where hits cluster.
 */
template <u32 Ways>
inline ScanResult
scanSetFixed(const u64 *tags, const u64 *stamps, u64 tag)
{
    u32 mask = static_cast<u32>(tags[0] == tag);
    u32 victim = 0;
    u64 oldest = stamps[0];
#if defined(__GNUC__)
#pragma GCC unroll 16
#endif
    for (u32 w = 1; w < Ways; ++w) {
        mask |= static_cast<u32>(tags[w] == tag) << w;
        const bool older = stamps[w] < oldest;
        victim = older ? w : victim;
        oldest = older ? stamps[w] : oldest;
    }
    const int hit =
        mask ? static_cast<int>(static_cast<u32>(__builtin_ctz(mask)))
             : -1;
    return {hit, victim};
}

inline ScanResult
scanSet(const u64 *tags, const u64 *stamps, u32 ways, u64 tag)
{
    // Dispatch the common geometries (4/8/16 ways) to fully-unrolled
    // straight-line kernels; the switch is on a per-structure constant
    // so its branch predicts perfectly, unlike a runtime-bound loop
    // whose trip-count bookkeeping rides every single probe.
    switch (ways) {
      case 4:
        return scanSetFixed<4>(tags, stamps, tag);
      case 8:
        return scanSetFixed<8>(tags, stamps, tag);
      case 16:
        return scanSetFixed<16>(tags, stamps, tag);
      default:
        break;
    }
    u32 mask = static_cast<u32>(tags[0] == tag);
    u32 victim = 0;
    u64 oldest = stamps[0];
    for (u32 w = 1; w < ways; ++w) {
        mask |= static_cast<u32>(tags[w] == tag) << w;
        const bool older = stamps[w] < oldest;
        victim = older ? w : victim;
        oldest = older ? stamps[w] : oldest;
    }
    const int hit =
        mask ? static_cast<int>(static_cast<u32>(__builtin_ctz(mask)))
             : -1;
    return {hit, victim};
}

} // namespace pccsim::util
