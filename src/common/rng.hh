/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * All stochastic components of the library (workload synthesis, training
 * substrate, tests) draw from this generator so that every experiment is
 * reproducible from a single 64-bit seed.
 */

#pragma once

#include <cmath>
#include <cstdint>

namespace loas {

/** Small, fast, seedable PRNG with convenience distributions. */
class Rng
{
  public:
    /** Seed the state via splitmix64 so any seed (even 0) is usable. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto& word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit sample. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        return next() % n;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * The integer threshold of bernoulli(p), for loops that draw many
     * trials at one p: bernoulliBelow(bernoulliThreshold(p)) consumes
     * one sample and returns exactly what bernoulli(p) would. With
     * u = next() >> 11, uniform() < p is u * 2^-53 < p, which is
     * u < p * 2^53 (a power-of-two scaling, exact), and for an integer
     * u that is u < ceil(p * 2^53).
     */
    static std::uint64_t
    bernoulliThreshold(double p)
    {
        if (!(p > 0.0)) // also NaN: uniform() < NaN is never true
            return 0;
        if (p >= 1.0)
            return std::uint64_t{1} << 53;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** One Bernoulli trial against a bernoulliThreshold() value. */
    bool bernoulliBelow(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Gaussian sample via Box-Muller. */
    double
    normal(double mean = 0.0, double stddev = 1.0)
    {
        if (have_cached_) {
            have_cached_ = false;
            return mean + stddev * cached_;
        }
        double u1 = 0.0;
        while (u1 <= 1e-300)
            u1 = uniform();
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 6.283185307179586 * u2;
        cached_ = r * std::sin(theta);
        have_cached_ = true;
        return mean + stddev * r * std::cos(theta);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
    double cached_ = 0.0;
    bool have_cached_ = false;
};

} // namespace loas
