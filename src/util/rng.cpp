#include "util/rng.hpp"

#include <array>
#include <bit>

#include "util/log.hpp"

namespace pccsim {

namespace {

// next() moves the state by a fixed linear map T over GF(2)^256 (xors,
// shifts and rotations only), so n steps are the map T^n. Let P be
// T's characteristic polynomial, of degree 256; P(T) = 0, hence
// T^n = (x^n mod P)(T). A polynomial of degree below 256 is a 256-bit
// vector here: bit i of word i / 64 is the coefficient of x^i.
using Poly = std::array<u64, 4>;

bool
coefficient(const Poly &p, unsigned i)
{
    return (p[i / 64] >> (i % 64)) & 1;
}

/** p * x mod P, where `low` is P without its x^256 term. */
Poly
timesX(Poly p, const Poly &low)
{
    const u64 carry = p[3] >> 63;
    p[3] = (p[3] << 1) | (p[2] >> 63);
    p[2] = (p[2] << 1) | (p[1] >> 63);
    p[1] = (p[1] << 1) | (p[0] >> 63);
    p[0] <<= 1;
    for (unsigned w = 0; w < 4; ++w)
        p[w] ^= low[w] & (0 - carry);
    return p;
}

/** a * b mod P, by Horner's rule over a's coefficients. */
Poly
mulMod(const Poly &a, const Poly &b, const Poly &low)
{
    u64 r0 = 0, r1 = 0, r2 = 0, r3 = 0;
    for (unsigned w = 4; w-- > 0;) {
        for (u64 word = a[w], i = 0; i < 64; ++i, word <<= 1) {
            const u64 carry = 0 - (r3 >> 63);
            const u64 take = 0 - (word >> 63);
            r3 = ((r3 << 1) | (r2 >> 63)) ^ (low[3] & carry) ^ (b[3] & take);
            r2 = ((r2 << 1) | (r1 >> 63)) ^ (low[2] & carry) ^ (b[2] & take);
            r1 = ((r1 << 1) | (r0 >> 63)) ^ (low[1] & carry) ^ (b[1] & take);
            r0 = (r0 << 1) ^ (low[0] & carry) ^ (b[0] & take);
        }
    }
    return {r0, r1, r2, r3};
}

} // namespace

void
Rng::advance(u64 n)
{
    // P, found once by Berlekamp-Massey from 512 values of one state
    // bit (a linear function of the state) of an arbitrary stream. The
    // shortest recurrence of that bit sequence divides P, which has
    // degree 256; finding degree 256 proves it is P, and that proof is
    // what makes the jump exact.
    static const Poly low = [] {
        constexpr unsigned kBits = 512;
        Rng probe(1);
        std::array<u8, kBits> s{};
        for (u8 &bit : s) {
            bit = probe.state_[0] & 1;
            probe.next();
        }
        // s[k] = sum_{i=1..len} c[i] s[k-i] once done.
        std::array<u8, kBits + 1> c{}, b{};
        c[0] = b[0] = 1;
        unsigned len = 0, shift = 1;
        for (unsigned k = 0; k < kBits; ++k) {
            u8 d = s[k];
            for (unsigned i = 1; i <= len; ++i)
                d ^= c[i] & s[k - i];
            if (!d) {
                ++shift;
                continue;
            }
            const auto prev = c;
            for (unsigned i = 0; i + shift <= kBits; ++i)
                c[i + shift] ^= b[i];
            if (2 * len <= k) {
                len = k + 1 - len;
                b = prev;
                shift = 1;
            } else {
                ++shift;
            }
        }
        PCCSIM_ASSERT(len == 256, "xoshiro256** recurrence of degree ",
                      len);
        // P = x^256 + sum_i c[i] x^(256-i).
        Poly p{};
        for (unsigned j = 0; j < 256; ++j)
            if (c[256 - j])
                p[j / 64] |= u64(1) << (j % 64);
        return p;
    }();

    Poly r{1, 0, 0, 0}; // x^n mod P, from n's top bit down
    for (unsigned bit = std::bit_width(n); bit-- > 0;) {
        r = mulMod(r, r, low);
        if ((n >> bit) & 1)
            r = timesX(r, low);
    }

    // r(T) applied to the state, the loop of the reference jump().
    u64 acc[4] = {};
    for (unsigned i = 0; i < 256; ++i) {
        if (coefficient(r, i))
            for (unsigned w = 0; w < 4; ++w)
                acc[w] ^= state_[w];
        next();
    }
    for (unsigned w = 0; w < 4; ++w)
        state_[w] = acc[w];
}

} // namespace pccsim
