#include "os/process.hpp"

#include <algorithm>

namespace pccsim::os {

namespace {

/** Distinct, 2MB-aligned heap bases per process, below 48 bits. */
Addr
heapBaseFor(Pid pid)
{
    return 0x1000'0000'0000ull + static_cast<Addr>(pid) *
                                     0x0100'0000'0000ull;
}

} // namespace

Process::Process(Pid pid, u64 heap_capacity)
    : pid_(pid),
      heap_capacity_(mem::alignUp(heap_capacity, mem::PageSize::Huge2M)),
      heap_base_(heapBaseFor(pid)),
      brk_(heap_base_)
{
}

Addr
Process::mmap(u64 bytes, std::string name)
{
    const u64 rounded = mem::alignUp(bytes, mem::PageSize::Huge2M);
    PCCSIM_ASSERT(brk_ + rounded <= heap_base_ + heap_capacity_,
                  "process heap capacity exceeded; raise heap_capacity");
    const Addr base = brk_;
    brk_ += rounded;
    vmas_.push_back({base, bytes, std::move(name)});
    cover(std::min(mem::alignUp(brk_ - heap_base_, mem::PageSize::Huge1G),
                   heap_capacity_));
    return base;
}

void
Process::cover(u64 bytes)
{
    if (bytes <= covered_)
        return;
    covered_ = bytes;
    const u64 regions = bytes >> mem::kShift2M;
    const u64 words = ((bytes >> mem::kShift4K) + 63) / 64;
    region_state_.resize(regions, RegionState::Unbacked);
    region_hint_.resize(regions, HugeHint::Default);
    faulted_.resize(words, 0);
    faulted_per_region_.resize(regions, 0);
    touched_.resize(words, 0);
    touched_per_region_.resize(regions, 0);
}

void
Process::madvise(Addr base, u64 bytes, HugeHint hint)
{
    PCCSIM_ASSERT(bytes > 0 && contains(base) &&
                  base + bytes <= brk_,
                  "madvise outside the mapped heap");
    const u64 first = regionIndex(base);
    const u64 last = regionIndex(base + bytes - 1);
    for (u64 r = first; r <= last; ++r)
        region_hint_[r] = hint;
}

void
Process::markFaulted(Addr vaddr)
{
    const u64 page = pageIndex(vaddr);
    u64 &word = faulted_[page >> 6];
    const u64 bit = 1ull << (page & 63);
    if (!(word & bit)) {
        word |= bit;
        ++faulted_per_region_[regionIndex(vaddr)];
        if (region_state_[regionIndex(vaddr)] == RegionState::Unbacked)
            region_state_[regionIndex(vaddr)] = RegionState::Base4K;
    }
    noteTouched(vaddr);
}

void
Process::markRegionHuge(Addr region_base)
{
    const u64 idx = regionIndex(region_base);
    region_state_[idx] = RegionState::Huge2M;
    // Every page in the region is now backed; count never-touched pages
    // as bloat and mark them faulted.
    const u32 already = faulted_per_region_[idx];
    bloat_pages_ += mem::kPagesPer2M - already;
    for (u64 p = 0; p < mem::kPagesPer2M; ++p) {
        const u64 page = pageIndex(region_base) + p;
        faulted_[page >> 6] |= 1ull << (page & 63);
    }
    faulted_per_region_[idx] = static_cast<u16>(mem::kPagesPer2M);
    promoted_bytes_ += mem::kBytes2M;
    ++promotions_;
}

void
Process::markRegion1G(Addr region_base)
{
    PCCSIM_ASSERT(mem::isAligned(region_base, mem::PageSize::Huge1G));
    for (u64 r = 0; r < mem::k2MPer1G; ++r) {
        const Addr base = region_base + r * mem::kBytes2M;
        const u64 idx = regionIndex(base);
        if (region_state_[idx] == RegionState::Huge2M)
            promoted_bytes_ -= mem::kBytes2M; // re-counted below
        else
            bloat_pages_ += mem::kPagesPer2M - faulted_per_region_[idx];
        region_state_[idx] = RegionState::Huge1G;
        for (u64 p = 0; p < mem::kPagesPer2M; ++p) {
            const u64 page = pageIndex(base) + p;
            faulted_[page >> 6] |= 1ull << (page & 63);
        }
        faulted_per_region_[idx] = static_cast<u16>(mem::kPagesPer2M);
    }
    promoted_bytes_ += mem::kBytes1G;
    ++promotions_1g_;
}

void
Process::markRegion1GDemoted(Addr region_base)
{
    PCCSIM_ASSERT(mem::isAligned(region_base, mem::PageSize::Huge1G));
    for (u64 r = 0; r < mem::k2MPer1G; ++r) {
        const u64 idx = regionIndex(region_base + r * mem::kBytes2M);
        PCCSIM_ASSERT(region_state_[idx] == RegionState::Huge1G);
        region_state_[idx] = RegionState::Huge2M;
    }
    // 1GB bytes remain promoted, just at 2MB granularity now.
    ++demotions_;
}

void
Process::markRegionDemoted(Addr region_base)
{
    const u64 idx = regionIndex(region_base);
    PCCSIM_ASSERT(region_state_[idx] == RegionState::Huge2M);
    region_state_[idx] = RegionState::Base4K;
    promoted_bytes_ -= mem::kBytes2M;
    ++demotions_;
}

} // namespace pccsim::os
