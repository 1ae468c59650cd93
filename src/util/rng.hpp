/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of randomness in pccsim flows through these generators so
 * that a given seed reproduces a run bit-for-bit. SplitMix64 is used for
 * seeding and cheap hashing; Xoshiro256** is the workhorse stream.
 */

#pragma once

#include <cmath>
#include <cstdint>

#include "util/types.hpp"

namespace pccsim {

/** SplitMix64: tiny, fast, good-enough mixer used for seeding/hashing. */
inline u64
splitmix64(u64 &state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Stateless mix of a 64-bit value (for hashing addresses etc.). */
inline u64
mix64(u64 x)
{
    return splitmix64(x);
}

/**
 * Xoshiro256** PRNG. Small state, excellent statistical quality, and much
 * faster than std::mt19937_64 — all workload generators use this.
 */
class Rng
{
  public:
    /** Seed all 256 bits of state from one 64-bit seed via SplitMix64. */
    explicit Rng(u64 seed = 0x5eed5eed5eed5eedull)
    {
        u64 sm = seed;
        for (auto &word : state_)
            word = splitmix64(sm);
    }

    /** Next raw 64-bit value. */
    u64
    next()
    {
        const u64 result = rotl(state_[1] * 5, 7) * 9;
        const u64 t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    u64
    below(u64 bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // for simulation purposes (bias < 2^-64 * bound).
        return static_cast<u64>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi]. */
    u64
    range(u64 lo, u64 hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** The 53 random bits behind uniform(): uniform() == bits * 2^-53. */
    u64
    uniformBits()
    {
        return next() >> 11;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(uniformBits()) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static u64
    rotl(u64 x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    u64 state_[4];
};

/**
 * Integer form of the compare `uniform() < p`: for every 53-bit x,
 * `x < uniformThreshold(p)` exactly when `double(x) * 2^-53 < p`.
 * x * 2^-53 is exact, so the compare holds iff x < p * 2^53 (also
 * exact, a power-of-two scaling), i.e. iff x < ceil(p * 2^53). The
 * result is clamped to [0, 2^53]: p <= 0 never passes, p >= 1 always
 * does.
 */
inline u64
uniformThreshold(double p)
{
    const double t = std::ceil(p * 0x1.0p53);
    if (!(t > 0.0))
        return 0;
    return t >= 0x1.0p53 ? u64(1) << 53 : static_cast<u64>(t);
}

/**
 * Zipf-distributed integer sampler over [0, n).
 *
 * Uses the rejection-inversion method of Hörmann & Derflinger, which has
 * O(1) sampling cost independent of n — essential for the synthetic
 * workload generators that model skewed page popularity.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of distinct items.
     * @param exponent Zipf skew (typical web/graph skew is 0.6 - 1.0).
     */
    ZipfSampler(u64 n, double exponent)
        : n_(n), s_(exponent)
    {
        hxm_ = h(static_cast<double>(n_) + 0.5);
        const double h0 = h(1.5) - std::pow(2.0, -s_);
        hx0_ = h0;
        cut_ = 1.0 - hInv(h(1.5) - std::pow(2.0, -s_));
    }

    /** Draw one Zipf value in [0, n). Smaller values are more popular. */
    u64
    sample(Rng &rng)
    {
        while (true) {
            const double u = hx0_ + rng.uniform() * (hxm_ - hx0_);
            const double x = hInv(u);
            const u64 k = static_cast<u64>(x + 0.5);
            const double kd = static_cast<double>(k);
            if (kd - x <= cut_)
                return clamp(k);
            if (u >= h(kd + 0.5) - std::pow(kd, -s_))
                return clamp(k);
        }
    }

  private:
    u64
    clamp(u64 k) const
    {
        if (k < 1)
            k = 1;
        if (k > n_)
            k = n_;
        return k - 1;
    }

    double
    h(double x) const
    {
        if (s_ == 1.0)
            return std::log(x);
        return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
    }

    double
    hInv(double x) const
    {
        if (s_ == 1.0)
            return std::exp(x);
        return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
    }

    u64 n_;
    double s_;
    double hxm_;
    double hx0_;
    double cut_;
};

} // namespace pccsim
