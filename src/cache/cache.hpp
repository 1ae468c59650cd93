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
 * Each level is a util::LruSets tag array keyed by line address: exact
 * true LRU, with empty ways filled before any valid line is evicted.
 */

#pragma once

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
    static constexpr u32 kMaxWays = util::LruSets::kMaxWays;

    explicit Cache(CacheParams params)
        : params_(params), sets_(params.sets(), params.ways)
    {
        PCCSIM_ASSERT(params.line_bytes > 0 && params.ways > 0 &&
                      params.ways <= kMaxWays);
        while ((1u << line_shift_) < params.line_bytes)
            ++line_shift_;
    }

    /**
     * Probe the line holding addr and update LRU; on a miss, fill it
     * over the first empty way, else the LRU way. Returns true on hit.
     */
    bool
    access(Addr addr)
    {
        return sets_.access(addr >> line_shift_).hit;
    }

    void flushAll() { sets_.flushAll(); }

    const CacheParams &params() const { return params_; }

  private:
    CacheParams params_;
    util::LruSets sets_;
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
