/**
 * @file
 * SMARTS-style sampled simulation (DESIGN.md, "Batched translation &
 * sampled simulation"): detailed windows of W accesses alternate with F
 * fast-forwarded ones. A window's warming half rebuilds the TLB/cache
 * state fast-forward left stale; its measured half, W/2 rounded up,
 * feeds the estimators. A closed window fixes the next fast-forward's
 * charge per access and its PCC feed rate (walks per access, thinned
 * Bresenham-style so runs stay deterministic). The System counts
 * accesses in and hands over the machine's counter totals at each
 * phase boundary.
 */

#pragma once

#include <algorithm>
#include <vector>

#include "sim/core_counters.hpp"
#include "sim/results.hpp"

namespace pccsim::sim {

class SampleController
{
  public:
    enum class Phase : u8
    {
        Warming = 0,
        Measuring = 1,
        FastForward = 2,
    };

    /** W = `window`, F = `fastforward`; the first advance() opens a
        window, as if a fast-forward phase had just ended. */
    SampleController(u64 window = 0, u64 fastforward = 0)
        : window_(window), fastforward_(fastforward)
    {
    }

    Phase phase() const { return phase_; }
    bool fastForwarding() const { return phase_ == Phase::FastForward; }

    /** `chunk` cut to the accesses left in the current phase. */
    u32
    clamp(u32 chunk) const
    {
        return static_cast<u32>(std::min<u64>(chunk, left_));
    }

    /** Count `n` accesses of the phase; true when advance() is due. */
    bool
    consume(u32 n)
    {
        (fastForwarding() ? ff_total_ : detailed_total_) += n;
        left_ -= n;
        return left_ == 0;
    }

    /**
     * Enter the next phase given the machine's counter and clock
     * totals now: warm-up → measurement → fast-forward → warm-up.
     */
    void advance(const CoreCounters &now, Cycles cycles);

    /** Cycles charged per fast-forwarded access. */
    Cycles ffCharge() const { return ff_charge_; }

    /** One fast-forwarded access: true when it feeds the PCC. */
    bool
    feedPcc()
    {
        pcc_acc_ += pcc_num_;
        if (pcc_acc_ < pcc_den_)
            return false;
        pcc_acc_ -= pcc_den_;
        return true;
    }

    /** RunResult::sampling: the window estimators so far. */
    SamplingStats stats() const;

  private:
    void measure(const CoreCounters &now, Cycles cycles);

    u64 window_;
    u64 fastforward_;
    Phase phase_ = Phase::FastForward;
    u64 left_ = 0;     //!< accesses remaining in the current phase
    u64 measured_ = 0; //!< measured accesses per window
    CoreCounters start_counters_; //!< totals when measuring began
    Cycles start_cycles_ = 0;
    std::vector<double> miss_rates_;  //!< per window, percent
    std::vector<double> walk_cycles_; //!< per window, per access
    u64 detailed_total_ = 0;
    u64 ff_total_ = 0;
    Cycles ff_charge_ = 0;
    u64 pcc_num_ = 0; //!< PCC feeds per pcc_den_ accesses
    u64 pcc_den_ = 1;
    u64 pcc_acc_ = 0; //!< Bresenham accumulator
};

} // namespace pccsim::sim
