/**
 * @file
 * Fused temporally-parallel join kernel: bit-identity of the fan-out
 * and collapse datapaths against a naive per-timestep reference, the
 * data-dependent collapse policy, datapath event counts, and the
 * full-range two-rank forEachMatch overload the kernel rides on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/rng.hh"
#include "core/fused_join.hh"
#include "tensor/fiber.hh"
#include "tensor/ranked_bitmask.hh"
#include "tensor/spike_tensor.hh"

#include "match_walks.hh"

namespace loas {
namespace {

/** Random spike fiber: `density` non-silent, `fire_p` per timestep
 *  bit (fire_p 1.0 = fully dense temporal words). Non-silent rows
 *  always fire at least once. */
SpikeFiber
randomSpikeFiber(std::size_t k, int timesteps, double density,
                 double fire_p, std::uint64_t seed)
{
    Rng rng(seed);
    SpikeFiber fiber;
    fiber.mask = Bitmask(k);
    for (std::size_t i = 0; i < k; ++i) {
        if (!rng.bernoulli(density))
            continue;
        TimeWord word = 0;
        for (int t = 0; t < timesteps; ++t)
            if (rng.bernoulli(fire_p))
                word |= static_cast<TimeWord>(TimeWord(1) << t);
        if (word == 0)
            word = static_cast<TimeWord>(
                TimeWord(1)
                << rng.uniformInt(
                       static_cast<std::uint64_t>(timesteps)));
        fiber.mask.set(i);
        fiber.values.push_back(word);
    }
    return fiber;
}

WeightFiber
randomWeightFiber(std::size_t k, double density, std::uint64_t seed)
{
    Rng rng(seed);
    WeightFiber fiber;
    fiber.mask = Bitmask(k);
    for (std::size_t i = 0; i < k; ++i) {
        if (!rng.bernoulli(density))
            continue;
        fiber.mask.set(i);
        fiber.values.push_back(
            static_cast<std::int32_t>(rng.uniformInt(255)) - 127);
    }
    return fiber;
}

/** Naive reference: walk every position, one timestep at a time. */
std::vector<std::int32_t>
referenceSums(const SpikeFiber& fa, const WeightFiber& fb,
              int timesteps)
{
    std::vector<std::int32_t> sums(
        static_cast<std::size_t>(timesteps), 0);
    std::size_t a_off = 0;
    for (std::size_t i = 0; i < fa.mask.size(); ++i) {
        if (!fa.mask.test(i))
            continue;
        const TimeWord word = fa.values[a_off++];
        if (!fb.mask.test(i))
            continue;
        const std::int32_t weight =
            fb.values[fb.mask.rank(i + 1) - 1];
        for (int t = 0; t < timesteps; ++t)
            if ((word >> t) & 1u)
                sums[static_cast<std::size_t>(t)] += weight;
    }
    return sums;
}

/** Run one fused join (both datapaths share this harness). */
std::vector<std::int32_t>
runFused(const SpikeFiber& fa, const WeightFiber& fb, int timesteps,
         bool collapse, FusedJoinStats* stats_out = nullptr)
{
    const RankedBitmask ra(fa.mask), rb(fb.mask);
    std::vector<std::int32_t> sums(
        static_cast<std::size_t>(timesteps), -1); // overwritten
    std::vector<std::int64_t> corr(
        static_cast<std::size_t>(timesteps), 0);
    const FusedJoinStats stats = fusedTemporalJoin(
        fa, ra, fb, rb, timesteps, collapse, sums.data(), corr.data());
    if (stats_out != nullptr)
        *stats_out = stats;
    return sums;
}

TEST(FusedJoin, FanoutMatchesNaiveReference)
{
    // k deliberately spans partial-word tails (k % 64 != 0) and the
    // single-word case; T spans 1 to the packing limit.
    for (const std::size_t k : {1ul, 63ul, 64ul, 65ul, 130ul, 512ul}) {
        for (const int t : {1, 4, 8, kMaxTimesteps}) {
            const SpikeFiber fa =
                randomSpikeFiber(k, t, 0.4, 0.3, k * 31 + t);
            const WeightFiber fb = randomWeightFiber(k, 0.3, k + t);
            EXPECT_EQ(runFused(fa, fb, t, false),
                      referenceSums(fa, fb, t))
                << "k=" << k << " t=" << t;
        }
    }
}

TEST(FusedJoin, CollapseIsBitIdenticalToFanout)
{
    // The datapath choice is purely a performance decision: exact
    // integer arithmetic on both sides, so the sums must agree bit
    // for bit across temporal densities from nearly-silent to dense.
    for (const double fire_p : {0.1, 0.5, 0.9, 1.0}) {
        for (const int t : {1, 3, 8, 16}) {
            const std::size_t k = 300;
            const SpikeFiber fa = randomSpikeFiber(
                k, t, 0.5, fire_p,
                static_cast<std::uint64_t>(fire_p * 100) + t);
            const WeightFiber fb = randomWeightFiber(k, 0.4, 77 + t);
            FusedJoinStats fanout_stats, collapse_stats;
            const auto fanout =
                runFused(fa, fb, t, false, &fanout_stats);
            const auto collapsed =
                runFused(fa, fb, t, true, &collapse_stats);
            EXPECT_EQ(fanout, collapsed)
                << "fire_p=" << fire_p << " t=" << t;
            EXPECT_EQ(fanout, referenceSums(fa, fb, t));
            EXPECT_FALSE(fanout_stats.collapsed);
            EXPECT_TRUE(collapse_stats.collapsed);
            EXPECT_EQ(fanout_stats.matches, collapse_stats.matches);
        }
    }
}

TEST(FusedJoin, AllDenseRowCollapsesWithZeroBitCorrections)
{
    // Fully dense temporal words: the collapse path needs no per-match
    // corrections at all — one pseudo-add per match plus the final T
    // materializing subtracts. The fan-out path pays matches x T adds.
    const std::size_t k = 256;
    const int t = 8;
    const SpikeFiber fa = randomSpikeFiber(k, t, 0.5, 1.0, 5);
    const WeightFiber fb = randomWeightFiber(k, 0.5, 6);
    FusedJoinStats fanout_stats, collapse_stats;
    const auto fanout = runFused(fa, fb, t, false, &fanout_stats);
    const auto collapsed = runFused(fa, fb, t, true, &collapse_stats);
    EXPECT_EQ(fanout, collapsed);
    ASSERT_GT(collapse_stats.matches, 0u);
    EXPECT_EQ(fanout_stats.acc_ops,
              fanout_stats.matches * static_cast<std::uint64_t>(t));
    EXPECT_EQ(collapse_stats.acc_ops, collapse_stats.matches);
    EXPECT_EQ(collapse_stats.correction_ops,
              static_cast<std::uint64_t>(t));
    EXPECT_LT(collapse_stats.updates(), fanout_stats.updates());
}

TEST(FusedJoin, StatsCountDatapathEvents)
{
    const std::size_t k = 400;
    const int t = 8;
    const SpikeFiber fa = randomSpikeFiber(k, t, 0.4, 0.4, 11);
    const WeightFiber fb = randomWeightFiber(k, 0.3, 12);

    // Expected counts from the naive walk.
    std::uint64_t matches = 0, firing_bits = 0, zero_bits = 0;
    std::size_t a_off = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (!fa.mask.test(i))
            continue;
        const TimeWord word = fa.values[a_off++];
        if (!fb.mask.test(i))
            continue;
        ++matches;
        const auto fired =
            static_cast<std::uint64_t>(popcount64(word));
        firing_bits += fired;
        zero_bits += static_cast<std::uint64_t>(t) - fired;
    }

    FusedJoinStats fanout_stats, collapse_stats;
    runFused(fa, fb, t, false, &fanout_stats);
    runFused(fa, fb, t, true, &collapse_stats);
    EXPECT_EQ(fanout_stats.matches, matches);
    EXPECT_EQ(fanout_stats.acc_ops, firing_bits);
    EXPECT_EQ(fanout_stats.correction_ops, 0u);
    EXPECT_EQ(collapse_stats.matches, matches);
    EXPECT_EQ(collapse_stats.acc_ops, matches);
    EXPECT_EQ(collapse_stats.correction_ops,
              zero_bits + static_cast<std::uint64_t>(t));
}

TEST(FusedJoin, EmptyOperandsYieldZeroSums)
{
    const std::size_t k = 128;
    const int t = 4;
    SpikeFiber fa;
    fa.mask = Bitmask(k); // all silent
    const WeightFiber fb = randomWeightFiber(k, 0.5, 9);
    FusedJoinStats stats;
    const auto sums = runFused(fa, fb, t, false, &stats);
    EXPECT_EQ(sums, std::vector<std::int32_t>(4, 0));
    EXPECT_EQ(stats.matches, 0u);
    EXPECT_EQ(stats.acc_ops, 0u);
    // The collapse path still materializes zero sums.
    EXPECT_EQ(runFused(fa, fb, t, true), sums);
}

TEST(FusedJoin, SingleTimestepDegeneratesToPlainJoin)
{
    const std::size_t k = 200;
    const SpikeFiber fa = randomSpikeFiber(k, 1, 0.5, 1.0, 21);
    const WeightFiber fb = randomWeightFiber(k, 0.5, 22);
    const auto fanout = runFused(fa, fb, 1, false);
    EXPECT_EQ(fanout, referenceSums(fa, fb, 1));
    EXPECT_EQ(runFused(fa, fb, 1, true), fanout);
}

TEST(FusedJoin, ShouldCollapsePolicyEdges)
{
    // Empty rows never collapse, whatever the threshold.
    EXPECT_FALSE(shouldCollapse(0, 0, 0.0));
    EXPECT_FALSE(shouldCollapse(0, 0, 1.0));
    // Threshold 0 collapses every non-empty row...
    EXPECT_TRUE(shouldCollapse(0, 10, 0.0));
    // ...threshold 1 only fully dense ones.
    EXPECT_FALSE(shouldCollapse(9, 10, 1.0));
    EXPECT_TRUE(shouldCollapse(10, 10, 1.0));
    // Fractional threshold: >= comparison on the dense fraction.
    EXPECT_TRUE(shouldCollapse(3, 4, 0.75));
    EXPECT_FALSE(shouldCollapse(2, 4, 0.75));
}

TEST(FusedJoinDeathTest, RejectsBadArguments)
{
    const std::size_t k = 64;
    const SpikeFiber fa = randomSpikeFiber(k, 4, 0.5, 0.5, 31);
    const WeightFiber fb = randomWeightFiber(k, 0.5, 32);
    const RankedBitmask ra(fa.mask), rb(fb.mask);
    std::vector<std::int32_t> sums(kMaxTimesteps + 1, 0);
    EXPECT_DEATH(
        fusedTemporalJoin(fa, ra, fb, rb, 0, false, sums.data()),
        "timesteps outside");
    EXPECT_DEATH(fusedTemporalJoin(fa, ra, fb, rb, kMaxTimesteps + 1,
                                   false, sums.data()),
                 "timesteps outside");
    EXPECT_DEATH(
        fusedTemporalJoin(fa, ra, fb, rb, 4, true, sums.data(),
                          nullptr),
        "correction");
}

TEST(ForEachMatch, FullRangeTwoRankOverloadAgreesWithRanged)
{
    // The fused kernel's overload must visit exactly the matches of
    // the ranged overload over [0, k), with identical rank pairs —
    // including partial trailing words.
    for (const std::size_t k : {1ul, 64ul, 65ul, 130ul, 511ul}) {
        Rng rng(k * 13 + 1);
        Bitmask a(k), b(k);
        for (std::size_t i = 0; i < k; ++i) {
            if (rng.bernoulli(0.5))
                a.set(i);
            if (rng.bernoulli(0.4))
                b.set(i);
        }
        const RankedBitmask ra(a), rb(b);
        std::vector<std::size_t> want, got;
        forEachMatch(ra, rb, 0, k,
                     [&](std::size_t pos, std::size_t rank_a,
                         std::size_t rank_b) {
                         want.push_back(pos);
                         want.push_back(rank_a);
                         want.push_back(rank_b);
                     });
        forEachMatch(ra, rb,
                     [&](std::size_t pos, std::size_t rank_a,
                         std::size_t rank_b) {
                         got.push_back(pos);
                         got.push_back(rank_a);
                         got.push_back(rank_b);
                     });
        EXPECT_EQ(got, want) << "k=" << k;
    }
}

} // namespace
} // namespace loas
