/**
 * @file
 * The set-associative tag array behind every LRU structure: the data
 * cache levels (cache/Cache), the TLBs and the page-walk caches
 * (tlb/SetAssocTlb).
 *
 * LruSets keeps a tag per way and exact true LRU as per-way u8
 * recency ranks: in each set, rank 0 is the most recently used way
 * and rank ways-1 the least recently used, so the ranks of a set are
 * always a permutation of [0, ways). Touching the way at rank `a` (a
 * hit, or the fill of the rank ways-1 victim) adds one to every rank
 * below `a` and sets the touched way's rank to 0. Dropping the way at
 * rank `a` moves it to rank ways-1 and takes one off every rank above
 * `a`. Empty ways therefore always rank below every filled way, and
 * the miss victim, the way at rank ways-1, is an empty way while the
 * set has one: the "first empty way, else the true-LRU way" rule, with
 * no clock and no per-way stamps. Which empty way a fill takes is left
 * to the ranks; hits, victims and set contents do not depend on it.
 *
 * The rank update has no serial dependency between ways, so with SSE2
 * (the x86-64 baseline) the common geometries, 4, 8 and 16 ways, run
 * a whole set as one register operation, and 8 and 16 ways compare
 * their u64 tags two per instruction (findTagSse2 on matchEight).
 * Every other way count, up to kMaxWays, and every build without SSE2
 * run plain loops.
 *
 * The scans are branch-free across the ways: an early-exit compare
 * loop's exit way is data-dependent on every probe of a random-access
 * stream, so it pays a branch mispredict per scan. The one branch is
 * hit or miss, which every caller takes anyway. Tags within one set
 * are unique (a tag is only filled after a failed probe), so "any
 * match" identifies the unique matching way.
 */

#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/log.hpp"
#include "util/types.hpp"

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
 * absent. Caller guarantees at most one element matches.
 */
inline int
findTag(const u64 *tags, u32 ways, u64 tag)
{
    int hit = -1;
    for (u32 w = 0; w < ways; ++w)
        hit = tags[w] == tag ? static_cast<int>(w) : hit;
    return hit;
}

/** findTag for exactly `Ways` ways, unrolled (a mask bit per way). */
template <u32 Ways>
inline int
findTagFixed(const u64 *tags, u64 tag)
{
    static_assert(Ways <= 32, "one mask bit per way");
    u32 mask = 0;
#if defined(__GNUC__)
#pragma GCC unroll 32
#endif
    for (u32 w = 0; w < Ways; ++w)
        mask |= static_cast<u32>(tags[w] == tag) << w;
    return mask ? static_cast<int>(static_cast<u32>(__builtin_ctz(mask)))
                : -1;
}

/** A set-associative tag array with exact true-LRU replacement. */
class LruSets
{
  public:
    /**
     * The tag of an empty way. Validity is the sentinel rather than a
     * flag, which keeps the scans pure tag compares; callers key with
     * shifted addresses, which never reach ~0.
     */
    static constexpr u64 kEmpty = ~0ull;

    /** Largest way count a u8 rank can order. */
    static constexpr u32 kMaxWays = 256;

    LruSets(u64 sets, u32 ways)
        : sets_(sets == 0 ? 1 : sets),
          ways_(ways == 0 ? 1 : ways),
          tags_(sets_ * ways_, kEmpty),
          ranks_(sets_ * ways_)
    {
        PCCSIM_ASSERT(ways_ <= kMaxWays);
        for (u64 base = 0; base < ranks_.size(); base += ways_)
            for (u32 w = 0; w < ways_; ++w)
                ranks_[base + w] = static_cast<u8>(ways_ - 1 - w);
    }

    /** Outcome of access(). */
    struct Access
    {
        bool hit;
        /** On a miss, the tag the fill replaced (kEmpty for a hole). */
        u64 victim;
    };

    /** Touch tag's way, filling it over the set's LRU way on a miss. */
    Access
    access(u64 tag)
    {
        PCCSIM_DCHECK(tag != kEmpty);
        const u64 base = setIndexOf(tag) * ways_;
        u64 *tags = &tags_[base];
        u8 *ranks = &ranks_[base];
        return withWays([&](auto fixed) -> Access {
            constexpr u32 W = decltype(fixed)::value;
            if (touchSet<W>(tags, ranks, tag))
                return {true, tag};
            const u32 way = touch<W>(ranks, static_cast<u8>(ways_ - 1));
            const u64 victim = tags[way];
            tags[way] = tag;
            return {false, victim};
        });
    }

    /** Touch tag's way if resident, without a fill. True on a hit. */
    bool
    touchIfPresent(u64 tag)
    {
        const u64 base = setIndexOf(tag) * ways_;
        return withWays([&](auto fixed) {
            return touchSet<decltype(fixed)::value>(&tags_[base],
                                                    &ranks_[base], tag);
        });
    }

    /** Probe without touching replacement state. */
    bool
    contains(u64 tag) const
    {
        return findTag(&tags_[setIndexOf(tag) * ways_], ways_, tag) >= 0;
    }

    /** Drop tag if resident; true when a way was emptied. */
    bool
    invalidate(u64 tag)
    {
        const u64 base = setIndexOf(tag) * ways_;
        const int w = findTag(&tags_[base], ways_, tag);
        if (w < 0)
            return false;
        drop(base + static_cast<u32>(w));
        return true;
    }

    /** Drop every resident tag for which pred(tag) holds; the count. */
    template <typename Pred>
    u64
    dropIf(Pred &&pred)
    {
        u64 dropped = 0;
        for (u64 i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kEmpty && pred(tags_[i])) {
                drop(i);
                ++dropped;
            }
        }
        return dropped;
    }

    /** Empty every way. Any rank order is valid for all-empty sets. */
    void
    flushAll()
    {
        for (auto &tag : tags_)
            tag = kEmpty;
    }

    /** Visit the tag of every filled way, in storage order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const u64 tag : tags_)
            if (tag != kEmpty)
                fn(tag);
    }

    u64
    validCount() const
    {
        u64 n = 0;
        forEachValid([&n](u64) { ++n; });
        return n;
    }

  private:
    u64
    setIndexOf(u64 tag) const
    {
        return pow2_sets_ ? (tag & (sets_ - 1)) : (tag % sets_);
    }

    /**
     * Call fn with the way count as a compile-time constant where a
     * packed kernel exists (4, 8 or 16 ways on SSE2 builds), else with
     * 0, which selects the plain loops over ways_. The way count is a
     * per-structure constant, so the switch predicts perfectly.
     */
    template <typename Fn>
    auto
    withWays(Fn &&fn) const -> decltype(fn(std::integral_constant<u32, 0>{}))
    {
#if defined(__SSE2__)
        switch (ways_) {
          case 4:
            return fn(std::integral_constant<u32, 4>{});
          case 8:
            return fn(std::integral_constant<u32, 8>{});
          case 16:
            return fn(std::integral_constant<u32, 16>{});
          default:
            break;
        }
#endif
        return fn(std::integral_constant<u32, 0>{});
    }

    template <u32 W>
    int
    find(const u64 *tags, u64 tag) const
    {
#if defined(__SSE2__)
        if constexpr (W == 4)
            return findTagFixed<4>(tags, tag);
        if constexpr (W == 8 || W == 16)
            return findTagSse2<W>(tags, tag);
#endif
        return findTag(tags, ways_, tag);
    }

    /** Touch the set's way holding `tag`, if any. True on a hit. */
    template <u32 W>
    bool
    touchSet(const u64 *tags, u8 *ranks, u64 tag) const
    {
        const int hit = find<W>(tags, tag);
        if (hit < 0)
            return false;
        // Touching the MRU way changes nothing; skipping the store keeps
        // repeated hits on one set off a store-to-load chain.
        if (ranks[hit] != 0)
            touch<W>(ranks, ranks[hit]);
        return true;
    }

    /** Make the way at `rank` the MRU way; returns that way. */
    template <u32 W>
    u32
    touch(u8 *ranks, u8 rank) const
    {
#if defined(__SSE2__)
        if constexpr (W != 0)
            return touchPacked<W>(ranks, rank);
#endif
        const u32 ways = ways_;
        u32 touched = 0;
        for (u32 w = 0; w < ways; ++w) {
            const u8 r = ranks[w];
            touched = r == rank ? w : touched;
            ranks[w] = static_cast<u8>(r + (r < rank));
        }
        ranks[touched] = 0;
        return touched;
    }

#if defined(__SSE2__)
    /** touch() for 4, 8 or 16 ways: the set's ranks in one register. */
    template <u32 Ways>
    static u32
    touchPacked(u8 *ranks, u8 rank)
    {
        __m128i packed;
        if constexpr (Ways == 4) {
            u32 word;
            std::memcpy(&word, ranks, sizeof word);
            packed = _mm_cvtsi32_si128(static_cast<int>(word));
        } else if constexpr (Ways == 8) {
            packed = _mm_loadl_epi64(reinterpret_cast<__m128i *>(ranks));
        } else {
            packed = _mm_loadu_si128(reinterpret_cast<__m128i *>(ranks));
        }
        const __m128i probe = _mm_set1_epi8(static_cast<char>(rank));
        const __m128i same = _mm_cmpeq_epi8(packed, probe);
        // Lanes past the set read as rank 0, but the set's own lane of
        // any rank comes first, so the lowest match is the set's way.
        const u32 way = static_cast<u32>(
            __builtin_ctz(static_cast<u32>(_mm_movemask_epi8(same))));
        // The signed compare yields -1 in each byte below the probe
        // (ranks are < 16), so the subtraction ages exactly those ways.
        packed = _mm_sub_epi8(packed, _mm_cmplt_epi8(packed, probe));
        packed = _mm_andnot_si128(same, packed);
        if constexpr (Ways == 4) {
            const u32 word = static_cast<u32>(_mm_cvtsi128_si32(packed));
            std::memcpy(ranks, &word, sizeof word);
        } else if constexpr (Ways == 8) {
            _mm_storel_epi64(reinterpret_cast<__m128i *>(ranks), packed);
        } else {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(ranks), packed);
        }
        return way;
    }
#endif

    /** Empty the way at flat index i, making it its set's LRU way. */
    void
    drop(u64 i)
    {
        const u32 ways = ways_;
        u8 *ranks = &ranks_[i - i % ways];
        const u8 rank = ranks_[i];
        for (u32 w = 0; w < ways; ++w)
            ranks[w] = static_cast<u8>(ranks[w] - (ranks[w] > rank));
        ranks_[i] = static_cast<u8>(ways - 1);
        tags_[i] = kEmpty;
    }

    u64 sets_;
    u32 ways_;
    std::vector<u64> tags_; //!< SoA: tag per way, kEmpty = empty
    std::vector<u8> ranks_; //!< SoA: recency rank per way, 0 = MRU
    /**
     * Real geometries have power-of-two set counts (one set, for the
     * small PWCs); indexing with a mask instead of a 64-bit division is
     * a large win on the per-access hot path. Odd set counts fall back
     * to modulo.
     */
    bool pow2_sets_ = (sets_ & (sets_ - 1)) == 0;
};

} // namespace pccsim::util
