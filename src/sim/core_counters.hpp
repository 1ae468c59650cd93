/**
 * @file
 * A core's hardware counters as one value: what a lane turn banks into
 * its job, what a sampling window differences, what telemetry sums.
 */

#pragma once

#include "util/types.hpp"

namespace pccsim::sim {

/** Cumulative counters of one core, or the difference of two readings. */
struct CoreCounters
{
    u64 accesses = 0;     //!< simulated accesses (fast-forwarded too)
    u64 tlb_accesses = 0;
    u64 l1_hits = 0;
    u64 l2_hits = 0;
    u64 walks = 0;        //!< full TLB-hierarchy misses
    u64 faults = 0;
    u64 walker_refs = 0;  //!< page-table fetches of those walks
    Cycles walk_cycles = 0;

    CoreCounters &
    operator+=(const CoreCounters &other)
    {
        accesses += other.accesses;
        tlb_accesses += other.tlb_accesses;
        l1_hits += other.l1_hits;
        l2_hits += other.l2_hits;
        walks += other.walks;
        faults += other.faults;
        walker_refs += other.walker_refs;
        walk_cycles += other.walk_cycles;
        return *this;
    }

    friend CoreCounters
    operator-(CoreCounters later, const CoreCounters &earlier)
    {
        later.accesses -= earlier.accesses;
        later.tlb_accesses -= earlier.tlb_accesses;
        later.l1_hits -= earlier.l1_hits;
        later.l2_hits -= earlier.l2_hits;
        later.walks -= earlier.walks;
        later.faults -= earlier.faults;
        later.walker_refs -= earlier.walker_refs;
        later.walk_cycles -= earlier.walk_cycles;
        return later;
    }
};

} // namespace pccsim::sim
