#include "sim/sampling.hpp"

#include <cmath>

namespace pccsim::sim {

void
SampleController::advance(const CoreCounters &now, Cycles cycles)
{
    if (phase_ == Phase::Warming) {
        measure(now, cycles);
    } else if (phase_ == Phase::Measuring) {
        const u64 w = measured_;
        const CoreCounters delta = now - start_counters_;
        miss_rates_.push_back(
            delta.tlb_accesses == 0
                ? 0.0
                : 100.0 * static_cast<double>(delta.walks) /
                      static_cast<double>(delta.tlb_accesses));
        walk_cycles_.push_back(static_cast<double>(delta.walk_cycles) /
                               static_cast<double>(w));
        // Fast-forward charging and PCC thinning both inherit this
        // window's rates (integer arithmetic keeps runs deterministic).
        ff_charge_ = (cycles - start_cycles_) / w;
        pcc_num_ = delta.walks;
        pcc_den_ = w;
        pcc_acc_ = 0;
        phase_ = Phase::FastForward;
        left_ = fastforward_;
    } else {
        // The measured half is W/2 rounded up, so W = 1 degenerates to
        // a warm-up-free single measured access, not an empty window.
        measured_ = (window_ + 1) / 2;
        phase_ = Phase::Warming;
        left_ = window_ - measured_;
        if (left_ == 0)
            measure(now, cycles);
    }
}

void
SampleController::measure(const CoreCounters &now, Cycles cycles)
{
    phase_ = Phase::Measuring;
    left_ = measured_;
    start_counters_ = now;
    start_cycles_ = cycles;
}

SamplingStats
SampleController::stats() const
{
    SamplingStats s;
    s.enabled = true;
    s.window = window_;
    s.fastforward = fastforward_;
    s.windows = miss_rates_.size();
    s.detailed_accesses = detailed_total_;
    s.ff_accesses = ff_total_;
    const auto meanCi = [](const std::vector<double> &v, double &mean,
                           double &ci95) {
        mean = 0.0;
        ci95 = 0.0;
        if (v.empty())
            return;
        for (double x : v)
            mean += x;
        mean /= static_cast<double>(v.size());
        if (v.size() < 2)
            return;
        double var = 0.0;
        for (double x : v)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(v.size() - 1);
        ci95 = 1.96 * std::sqrt(var / static_cast<double>(v.size()));
    };
    meanCi(miss_rates_, s.miss_rate_mean, s.miss_rate_ci95);
    meanCi(walk_cycles_, s.walk_cycles_mean, s.walk_cycles_ci95);
    return s;
}

} // namespace pccsim::sim
