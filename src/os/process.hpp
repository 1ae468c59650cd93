/**
 * @file
 * Simulated process: virtual address space (VMAs + heap), page table,
 * and the flat fast-path structures the simulator consults per access.
 *
 * The radix page table (pt::PageTable) stays authoritative for walks
 * and scans; the flat per-region/per-page arrays mirror it so the hot
 * path costs O(1) per access instead of a radix descent.
 */

#pragma once

#include <string>
#include <vector>

#include "mem/paging.hpp"
#include "pt/page_table.hpp"
#include "util/log.hpp"
#include "util/types.hpp"

namespace pccsim::os {

/** How a 2MB-aligned heap region is currently backed. */
enum class RegionState : u8
{
    Unbacked = 0, //!< no pages faulted yet
    Base4K = 1,   //!< backed (partially) by base pages
    Huge2M = 2,   //!< backed by one 2MB huge page
    Huge1G = 3,   //!< part of a 1GB huge page
};

/** One mmap'd allocation, for reporting and eligibility checks. */
struct Vma
{
    Addr base = 0;
    u64 bytes = 0;
    std::string name;
};

/** Per-region madvise-style huge-page hint (Sec. 2.1 / Sec. 5.4.2). */
enum class HugeHint : u8
{
    Default = 0, //!< follow the system-wide policy
    Huge = 1,    //!< MADV_HUGEPAGE: prefer huge backing
    NoHuge = 2,  //!< MADV_NOHUGEPAGE: never back with huge pages
};

class Process
{
  public:
    /**
     * @param pid Process id; determines the heap base so distinct
     *        processes occupy distinct address ranges.
     * @param heap_capacity Address-space bound on the heap: mmap()
     *        fails past it. The flat per-region/per-page arrays start
     *        empty and grow with the heap, in whole 1GB ranges (so a
     *        1GB promotion over the mapped heap stays in range),
     *        never past this bound.
     */
    Process(Pid pid, u64 heap_capacity);

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** Reserve a 2MB-aligned heap allocation; returns its base. */
    Addr mmap(u64 bytes, std::string name);

    /**
     * Apply a huge-page hint to every 2MB region overlapping
     * [base, base + bytes) — the madvise(MADV_HUGEPAGE /
     * MADV_NOHUGEPAGE) interface.
     */
    void madvise(Addr base, u64 bytes, HugeHint hint);

    /** Hint of the region containing vaddr. */
    HugeHint
    hintOf(Addr vaddr) const
    {
        return region_hint_[regionIndex(vaddr)];
    }

    Pid pid() const { return pid_; }
    Addr heapBase() const { return heap_base_; }
    Addr heapEnd() const { return brk_; }
    u64 heapCapacity() const { return heap_capacity_; }

    /** Total bytes allocated via mmap (the application footprint). */
    u64 footprintBytes() const { return brk_ - heap_base_; }

    const std::vector<Vma> &vmas() const { return vmas_; }

    bool
    contains(Addr vaddr) const
    {
        return vaddr >= heap_base_ && vaddr < brk_;
    }

    // ---- fast-path state (mirrors the page table) ----

    /** Backing state of the 2MB region containing vaddr. */
    RegionState
    regionStateOf(Addr vaddr) const
    {
        return region_state_[regionIndex(vaddr)];
    }

    /** Page size currently mapping vaddr (valid only if faulted). */
    mem::PageSize
    mappingSizeOf(Addr vaddr) const
    {
        switch (regionStateOf(vaddr)) {
          case RegionState::Huge2M: return mem::PageSize::Huge2M;
          case RegionState::Huge1G: return mem::PageSize::Huge1G;
          default: return mem::PageSize::Base4K;
        }
    }

    /** Has the 4KB page containing vaddr been faulted in? */
    bool
    faulted(Addr vaddr) const
    {
        const u64 page = pageIndex(vaddr);
        return (faulted_[page >> 6] >> (page & 63)) & 1;
    }

    /** Faulted base pages inside the region containing vaddr. */
    u32
    faultedInRegion(Addr vaddr) const
    {
        return faulted_per_region_[regionIndex(vaddr)];
    }

    /**
     * Has the 4KB page containing vaddr ever been accessed?
     *
     * Distinct from faulted(): promotion marks the whole region
     * faulted (the huge frame backs every page), while the touched
     * bitmap only ever grows through real accesses. The pressure
     * reclaimer relies on it — a never-touched page backed by a huge
     * frame holds no data and can be dropped safely.
     */
    bool
    touched(Addr vaddr) const
    {
        const u64 page = pageIndex(vaddr);
        return (touched_[page >> 6] >> (page & 63)) & 1;
    }

    /** Touched pages inside the region containing vaddr. */
    u32
    touchedInRegion(Addr vaddr) const
    {
        return touched_per_region_[regionIndex(vaddr)];
    }

    /**
     * Record a real access to vaddr (called by the simulator on every
     * access and by the fault handler). Keeps the touched bitmap
     * accurate for huge-backed regions, whose accesses never fault.
     */
    void
    noteTouched(Addr vaddr)
    {
        const u64 page = pageIndex(vaddr);
        u64 &word = touched_[page >> 6];
        const u64 bit = 1ull << (page & 63);
        if (!(word & bit)) {
            word |= bit;
            ++touched_per_region_[regionIndex(vaddr)];
        }
    }

    /** Index of the region containing vaddr within the heap. */
    u64
    regionIndex(Addr vaddr) const
    {
        // Debug-only: this sits on the per-access hot path and an
        // out-of-heap vaddr is caught by mmap()/fault handling anyway.
        PCCSIM_DCHECK(vaddr >= heap_base_ &&
                      vaddr < heap_base_ + covered_);
        return (vaddr - heap_base_) >> mem::kShift2M;
    }

    /** 2MB regions spanned by the current heap. */
    u64
    numRegions() const
    {
        return (mem::alignUp(brk_, mem::PageSize::Huge2M) - heap_base_) >>
               mem::kShift2M;
    }

    /** Base address of region i. */
    Addr
    regionBase(u64 index) const
    {
        return heap_base_ + (index << mem::kShift2M);
    }

    // ---- state transitions (called by the OS only) ----

    void markFaulted(Addr vaddr);
    void markRegionHuge(Addr region_base);
    void markRegionDemoted(Addr region_base);

    /** Mark an entire 1GB-aligned range as backed by one 1GB page. */
    void markRegion1G(Addr region_base);

    /** Split a 1GB-backed range back into 2MB-backed regions. */
    void markRegion1GDemoted(Addr region_base);

    pt::PageTable &pageTable() { return page_table_; }
    const pt::PageTable &pageTable() const { return page_table_; }

    // ---- promotion bookkeeping ----

    u64 promotedBytes() const { return promoted_bytes_; }
    u64 promotions() const { return promotions_; }
    u64 promotions1G() const { return promotions_1g_; }
    u64 demotions() const { return demotions_; }

    /** Never-touched base pages now backed by huge frames (bloat). */
    u64 bloatPages() const { return bloat_pages_; }

  private:
    u64
    pageIndex(Addr vaddr) const
    {
        PCCSIM_DCHECK(vaddr >= heap_base_ &&
                      vaddr < heap_base_ + covered_);
        return (vaddr - heap_base_) >> mem::kShift4K;
    }

    /** Grow the flat arrays to cover the first `bytes` of the heap. */
    void cover(u64 bytes);

    Pid pid_;
    u64 heap_capacity_;
    u64 covered_ = 0; //!< heap bytes the flat arrays cover
    Addr heap_base_;
    Addr brk_;
    std::vector<Vma> vmas_;

    pt::PageTable page_table_;
    std::vector<RegionState> region_state_;
    std::vector<HugeHint> region_hint_;
    std::vector<u64> faulted_;           //!< bitmap, 1 bit per 4KB page
    std::vector<u16> faulted_per_region_;
    std::vector<u64> touched_;           //!< really-accessed pages
    std::vector<u16> touched_per_region_;

    u64 promoted_bytes_ = 0;
    u64 promotions_ = 0;
    u64 promotions_1g_ = 0;
    u64 demotions_ = 0;
    u64 bloat_pages_ = 0;

    friend class Os;
};

} // namespace pccsim::os
