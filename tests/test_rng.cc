/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace loas {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliFrequencyMatchesP)
{
    Rng rng(99);
    const double p = 0.3;
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(42);
    const int n = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(2.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng rng(0);
    bool nonzero = false;
    for (int i = 0; i < 10; ++i)
        nonzero = nonzero || rng.next() != 0;
    EXPECT_TRUE(nonzero);
}

/** bernoulliBelow(bernoulliThreshold(p)) against bernoulli(p). */
void
expectThresholdFormAgrees(double p)
{
    // At the boundary: the samples u = threshold - 1 and threshold sit
    // on either side of p * 2^53 exactly as uniform() < p decides.
    const std::uint64_t threshold = Rng::bernoulliThreshold(p);
    for (const std::uint64_t u : {threshold - 1, threshold}) {
        if (u >= (std::uint64_t{1} << 53))
            continue; // not a value of next() >> 11
        EXPECT_EQ(static_cast<double>(u) * 0x1.0p-53 < p, u < threshold)
            << "p=" << p << " u=" << u;
    }
    // And over a stream: the same draws, trial for trial.
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(a.bernoulli(p), b.bernoulliBelow(threshold))
            << "p=" << p << " trial " << i;
}

TEST(Rng, BernoulliThresholdMatchesBernoulli)
{
    for (const double p : {0.0, 0x1.0p-53, 0.5, 1.0 - 0x1.0p-53, 1.0})
        expectThresholdFormAgrees(p);
    // A sweep of p, including values that are not multiples of 2^-53.
    Rng rng(77);
    for (int i = 0; i < 500; ++i)
        expectThresholdFormAgrees(rng.uniform());
    for (int i = 1; i < 1000; ++i)
        expectThresholdFormAgrees(i / 1000.0);
    EXPECT_EQ(Rng::bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(1.0), std::uint64_t{1} << 53);
    EXPECT_EQ(Rng::bernoulliThreshold(0x1.0p-53), 1u);
}

} // namespace
} // namespace loas
