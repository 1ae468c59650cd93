/**
 * @file
 * Set-associative data cache and a three-level hierarchy.
 *
 * The timing model uses this to charge realistic per-access costs so
 * that cache-optimized workloads (dedup, mcf in Fig. 1) show the low
 * memory-boundedness — and hence low TLB sensitivity — the paper
 * reports, while irregular graph workloads pay frequent DRAM trips.
 *
 * Caches are virtually indexed in this model: the simulator tracks
 * pages, not frames, on the hot path, and physical layout does not
 * change any conclusion the paper draws.
 *
 * Replacement is exact true LRU kept as per-way u8 recency ranks: in
 * each set, rank 0 is the most recently used way and rank ways-1 the
 * least recently used, so the ranks of a set are always a permutation
 * of [0, ways). Touching the way at rank `a` (a hit, or the fill of
 * the rank ways-1 victim) adds one to every rank below `a` and sets
 * the touched way's rank to 0. Ranks start, and restart after
 * flushAll(), at rank[w] = ways-1-w: empty ways are then always older
 * than filled ones and fill in index order, which is exactly the
 * "first empty way, else the true-LRU way" rule.
 *
 * The rank update has no serial dependency between ways, so with SSE2
 * (the x86-64 baseline) the common geometries, 8 and 16 ways, run a
 * whole set as one register operation: the ranks sit in one SSE2
 * register, updated by byte-wise compares, and the u64 tags are
 * compared two per instruction (util::findTagSse2). Every other way
 * count, up to kMaxWays, and every build without SSE2 run a plain
 * loop.
 */

#pragma once

#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/log.hpp"
#include "util/tagscan.hpp"
#include "util/types.hpp"

namespace pccsim::cache {

/** Geometry of one cache level. */
struct CacheParams
{
    u64 size_bytes = 32 * 1024;
    u32 ways = 8;
    u32 line_bytes = 64;

    u64
    sets() const
    {
        return size_bytes / (static_cast<u64>(ways) * line_bytes);
    }
};

/** One set-associative cache level with true-LRU replacement. */
class Cache
{
  public:
    /** Largest way count a u8 rank can order. */
    static constexpr u32 kMaxWays = 256;

    explicit Cache(CacheParams params)
        : params_(params),
          sets_(params.sets() == 0 ? 1 : params.sets()),
          tags_(sets_ * params.ways, kInvalidTag),
          ranks_(sets_ * params.ways)
    {
        PCCSIM_ASSERT(params.line_bytes > 0 && params.ways > 0 &&
                      params.ways <= kMaxWays);
        line_shift_ = 0;
        while ((1u << line_shift_) < params.line_bytes)
            ++line_shift_;
        // Real geometries have power-of-two set counts; indexing with a
        // mask instead of a 64-bit division is a large win on the
        // per-access hot path. Odd set counts fall back to modulo.
        set_mask_ = (sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0;
        resetRanks();
    }

    /**
     * Probe the line holding addr and update LRU; on a miss, fill it
     * over the first empty way, else the LRU way. Returns true on hit.
     */
    bool
    access(Addr addr)
    {
        const u64 tag = addr >> line_shift_;
        PCCSIM_DCHECK(tag != kInvalidTag);
        const u64 set_index = setIndexOf(tag);
        u64 *tags = &tags_[set_index * params_.ways];
        u8 *ranks = &ranks_[set_index * params_.ways];
#if defined(__SSE2__)
        // The way count is a per-structure constant, so this switch
        // predicts perfectly.
        switch (params_.ways) {
          case 8:
            return accessPacked<8>(tags, ranks, tag);
          case 16:
            return accessPacked<16>(tags, ranks, tag);
          default:
            break;
        }
#endif
        return accessAny(tags, ranks, params_.ways, tag);
    }

    void
    flushAll()
    {
        for (auto &tag : tags_)
            tag = kInvalidTag;
        resetRanks();
    }

    const CacheParams &params() const { return params_; }

  private:
    /**
     * Validity is the sentinel tag rather than a bool, which keeps the
     * hot-path scans pure tag compares. The sentinel is unreachable as
     * a real tag: tags are addr >> line_shift_, so ~0 would require an
     * address in the top cache line of the address space.
     */
    static constexpr u64 kInvalidTag = ~0ull;

    u64
    setIndexOf(u64 tag) const
    {
        return set_mask_ ? (tag & set_mask_) : (tag % sets_);
    }

    void
    resetRanks()
    {
        const u32 ways = params_.ways;
        for (u64 i = 0; i < ranks_.size(); ++i)
            ranks_[i] = static_cast<u8>(ways - 1 - i % ways);
    }

    // Each kernel reads the rank `a` of the way to touch (the hit way,
    // else rank ways-1: the LRU victim), finds that way as the one
    // holding rank `a`, stores the tag there (a no-op on a hit, so no
    // branch) and applies the rank update.

#if defined(__SSE2__)
    /** 8 or 16 ways: the set's ranks update as one SSE2 register. */
    template <u32 Ways>
    static bool
    accessPacked(u64 *tags, u8 *ranks, u64 tag)
    {
        const int hit = util::findTagSse2<Ways>(tags, tag);
        const u8 rank = hit >= 0 ? ranks[hit] : Ways - 1;
        const auto *src = reinterpret_cast<const __m128i *>(ranks);
        __m128i packed =
            Ways == 8 ? _mm_loadl_epi64(src) : _mm_loadu_si128(src);
        const __m128i probe = _mm_set1_epi8(static_cast<char>(rank));
        const __m128i same = _mm_cmpeq_epi8(packed, probe);
        tags[__builtin_ctz(static_cast<u32>(_mm_movemask_epi8(same)))] =
            tag;
        // The signed compare yields -1 in each byte below the probe
        // (ranks are < 16), so the subtraction ages exactly those ways.
        packed = _mm_sub_epi8(packed, _mm_cmplt_epi8(packed, probe));
        packed = _mm_andnot_si128(same, packed);
        auto *dst = reinterpret_cast<__m128i *>(ranks);
        if constexpr (Ways == 8)
            _mm_storel_epi64(dst, packed);
        else
            _mm_storeu_si128(dst, packed);
        return hit >= 0;
    }
#endif

    static bool
    accessAny(u64 *tags, u8 *ranks, u32 ways, u64 tag)
    {
        int hit = -1;
        for (u32 w = 0; w < ways; ++w)
            hit = tags[w] == tag ? static_cast<int>(w) : hit;
        const u8 rank =
            hit >= 0 ? ranks[hit] : static_cast<u8>(ways - 1);
        u32 touched = 0;
        for (u32 w = 0; w < ways; ++w) {
            const u8 r = ranks[w];
            touched = r == rank ? w : touched;
            ranks[w] = static_cast<u8>(r + (r < rank));
        }
        ranks[touched] = 0;
        tags[touched] = tag;
        return hit >= 0;
    }

    CacheParams params_;
    u64 sets_;
    std::vector<u64> tags_; //!< SoA: tag per way, sentinel = empty
    std::vector<u8> ranks_; //!< SoA: recency rank per way, 0 = MRU
    u64 set_mask_ = 0;
    u32 line_shift_ = 0;
};

/** Latency (cycles) charged per hit level. */
struct CacheLatencies
{
    Cycles l1 = 4;
    Cycles l2 = 12;
    Cycles llc = 42;
    Cycles dram = 220;
};

/** Three-level inclusive-enough hierarchy for timing purposes. */
class CacheHierarchy
{
  public:
    struct Config
    {
        CacheParams l1{32 * 1024, 8, 64};
        CacheParams l2{256 * 1024, 8, 64};
        CacheParams llc{8 * 1024 * 1024, 16, 64};
        CacheLatencies latencies{};
        bool enabled = true;
    };

    CacheHierarchy() : CacheHierarchy(Config{}) {}

    explicit CacheHierarchy(Config config)
        : config_(config), l1_(config.l1), l2_(config.l2),
          llc_(config.llc)
    {
    }

    /**
     * Look up addr, fill on miss, and return the access latency.
     * Every level a miss passes through refills on the way down, so
     * each level sees exactly one probe-or-fill per access that
     * reaches it.
     */
    Cycles
    access(Addr addr)
    {
        ++accesses_;
        if (!config_.enabled)
            return config_.latencies.dram;
        if (l1_.access(addr)) {
            ++l1_hits_;
            return config_.latencies.l1;
        }
        if (l2_.access(addr)) {
            ++l2_hits_;
            return config_.latencies.l2;
        }
        if (llc_.access(addr)) {
            ++llc_hits_;
            return config_.latencies.llc;
        }
        ++dram_;
        return config_.latencies.dram;
    }

    void
    flushAll()
    {
        l1_.flushAll();
        l2_.flushAll();
        llc_.flushAll();
    }

    u64 accesses() const { return accesses_; }
    u64 l1Hits() const { return l1_hits_; }
    u64 l2Hits() const { return l2_hits_; }
    u64 llcHits() const { return llc_hits_; }
    u64 dramAccesses() const { return dram_; }

    void
    resetStats()
    {
        accesses_ = l1_hits_ = l2_hits_ = llc_hits_ = dram_ = 0;
    }

  private:
    Config config_;
    Cache l1_;
    Cache l2_;
    Cache llc_;
    u64 accesses_ = 0;
    u64 l1_hits_ = 0;
    u64 l2_hits_ = 0;
    u64 llc_hits_ = 0;
    u64 dram_ = 0;
};

} // namespace pccsim::cache
