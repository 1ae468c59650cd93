/**
 * @file
 * Hardware page-table walker model with split page-walk caches (PWCs).
 *
 * On a last-level TLB miss the walker descends the radix page table,
 * setting accessed bits, and reports (a) how many page-table memory
 * references the walk needed given the PWC state — the timing input —
 * and (b) the prior accessed-bit state at the PUD and PMD levels — the
 * PCC's cold-miss filter input (paper Sec. 3.2, Fig. 3).
 *
 * The split PWC mirrors Intel's design: one small cache per non-leaf
 * level (PML4E/PDPTE/PDE). A hit at the deepest level means only the
 * leaf entry must be fetched from the memory hierarchy, giving the
 * 1.1-1.4 references/walk the paper quotes (Sec. 5.4.1).
 */

#pragma once

#include "mem/paging.hpp"
#include "pt/page_table.hpp"
#include "tlb/set_assoc_tlb.hpp"
#include "util/types.hpp"

namespace pccsim::pt {

/** Geometry of the split page-walk caches. */
struct PwcParams
{
    bool enabled = true;
    tlb::TlbParams pml4e{2, 2};   //!< caches PGD entries (1 per 512GB)
    tlb::TlbParams pdpte{4, 4};   //!< caches PUD entries (1 per 1GB)
    tlb::TlbParams pde{32, 4};    //!< caches PMD entries (1 per 2MB)
};

/** Everything a Core needs to know about one completed walk. */
struct WalkOutcome
{
    bool present = false;
    mem::PageSize size = mem::PageSize::Base4K;
    Pfn pfn = 0;
    unsigned memory_refs = 0;      //!< page-table fetches from memory
    bool pud_was_accessed = false; //!< A-bit seen set at the 1GB level
    bool pmd_was_accessed = false; //!< A-bit seen set at the 2MB level
    bool pte_was_accessed = false; //!< A-bit seen set at the 4KB leaf
};

class Walker
{
  public:
    explicit Walker(PwcParams params = PwcParams{})
        : params_(params),
          pml4e_(params.pml4e),
          pdpte_(params.pdpte),
          pde_(params.pde)
    {
    }

    /**
     * Walk the page table for vaddr. Sets accessed bits, consults and
     * refills the PWCs, and reports the outcome.
     */
    WalkOutcome
    walk(PageTable &table, Addr vaddr)
    {
        WalkOutcome out;
        const auto info = table.walk(vaddr);
        out.present = info.present;
        out.size = info.size;
        out.pfn = info.pfn;
        out.pud_was_accessed = info.pud_was_accessed;
        out.pmd_was_accessed = info.pmd_was_accessed;
        out.pte_was_accessed = info.pte_was_accessed;

        ++walks_;
        out.memory_refs = refsFor(vaddr, info);
        total_refs_ += out.memory_refs;
        return out;
    }

    /**
     * Drop PWC entries covering [base, base + bytes) — required when the
     * OS rewrites page-table entries (promotion/demotion/migration).
     */
    void
    shootdown(Addr base, u64 bytes)
    {
        const Vpn lo2m = mem::vpnOf(base, mem::PageSize::Huge2M);
        const Vpn hi2m = mem::vpnOf(base + bytes - 1,
                                    mem::PageSize::Huge2M) + 1;
        pde_.invalidateVpnRange(lo2m, hi2m);
        // A PMD rewrite (2MB promote/demote, PTE migration) leaves the
        // PUD entry itself intact, so cached PDPTEs stay valid unless
        // the invalidation spans whole 1GB mappings.
        if (bytes >= mem::kBytes1G) {
            const Vpn lo1g = mem::vpnOf(base, mem::PageSize::Huge1G);
            const Vpn hi1g = mem::vpnOf(base + bytes - 1,
                                        mem::PageSize::Huge1G) + 1;
            pdpte_.invalidateVpnRange(lo1g, hi1g);
        }
        // PML4E entries only point to lower tables; they stay valid.
    }

    void
    flushAll()
    {
        pml4e_.flushAll();
        pdpte_.flushAll();
        pde_.flushAll();
    }

    u64 walks() const { return walks_; }
    u64 totalRefs() const { return total_refs_; }

    /** Mean page-table references per walk (the paper's 1.1-1.4). */
    double
    refsPerWalk() const
    {
        return walks_ == 0
            ? 0.0
            : static_cast<double>(total_refs_) /
                  static_cast<double>(walks_);
    }

    void
    resetStats()
    {
        walks_ = 0;
        total_refs_ = 0;
    }

  private:
    unsigned
    refsFor(Addr vaddr, const PageTable::WalkInfo &info)
    {
        // Leaf depth: 1GB leaf = 2 levels, 2MB = 3, 4KB = 4. A walk that
        // failed early (non-present) still fetched `info.levels` entries.
        unsigned depth = info.levels == 0 ? 1 : info.levels;
        if (!params_.enabled)
            return depth;

        const Vpn vpn1g = mem::vpnOf(vaddr, mem::PageSize::Huge1G);
        const Vpn vpn2m = mem::vpnOf(vaddr, mem::PageSize::Huge2M);
        const Vpn vpn512g = vaddr >> 39;

        // Every traversed level is probed and (re)filled, each with one
        // access(); the walk starts below the deepest PWC hit.
        unsigned skipped = 0; // number of levels the PWCs supply
        if (depth >= 4 && pde_.access(vpn2m).hit)
            skipped = 3;
        if (depth >= 3 && pdpte_.access(vpn1g).hit && skipped == 0)
            skipped = 2;
        if (depth >= 2 && pml4e_.access(vpn512g).hit && skipped == 0)
            skipped = 1;
        return depth - skipped;
    }

    PwcParams params_;
    tlb::SetAssocTlb pml4e_;
    tlb::SetAssocTlb pdpte_;
    tlb::SetAssocTlb pde_;
    u64 walks_ = 0;
    u64 total_refs_ = 0;
};

} // namespace pccsim::pt
