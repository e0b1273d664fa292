/** @file RankedBitmask: O(1) rank/popcountRange and word-AND matching. */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "tensor/ranked_bitmask.hh"

#include "match_walks.hh"

namespace loas {
namespace {

Bitmask
randomMask(std::size_t size, double density, std::uint64_t seed)
{
    Rng rng(seed);
    Bitmask mask(size);
    for (std::size_t i = 0; i < size; ++i)
        if (rng.bernoulli(density))
            mask.set(i);
    return mask;
}

TEST(RankedBitmask, EmptyMask)
{
    const Bitmask mask(0);
    const RankedBitmask ranked(mask);
    EXPECT_EQ(ranked.rank(0), 0u);
    EXPECT_EQ(ranked.popcountRange(0, 0), 0u);
    EXPECT_EQ(ranked.popcount(), 0u);
}

TEST(RankedBitmask, AllZeros)
{
    const Bitmask mask(200);
    const RankedBitmask ranked(mask);
    for (std::size_t i = 0; i <= 200; i += 7)
        EXPECT_EQ(ranked.rank(i), 0u);
    EXPECT_EQ(ranked.popcountRange(0, 200), 0u);
}

TEST(RankedBitmask, AllOnesOddLength)
{
    // k deliberately not a multiple of 64: the trailing partial word
    // must not contribute phantom bits.
    const std::size_t k = 130;
    Bitmask mask(k);
    for (std::size_t i = 0; i < k; ++i)
        mask.set(i);
    const RankedBitmask ranked(mask);
    for (std::size_t i = 0; i <= k; ++i)
        EXPECT_EQ(ranked.rank(i), i);
    for (std::size_t lo = 0; lo <= k; lo += 13)
        for (std::size_t hi = lo; hi <= k; hi += 17)
            EXPECT_EQ(ranked.popcountRange(lo, hi), hi - lo);
    EXPECT_EQ(ranked.popcount(), k);
}

TEST(RankedBitmask, MatchesScalarRankEverywhere)
{
    for (const std::size_t k : {1ul, 63ul, 64ul, 65ul, 67ul, 512ul}) {
        const Bitmask mask = randomMask(k, 0.3, k);
        const RankedBitmask ranked(mask);
        for (std::size_t i = 0; i <= k; ++i)
            EXPECT_EQ(ranked.rank(i), mask.rank(i)) << "k=" << k
                                                    << " i=" << i;
    }
}

TEST(RankedBitmask, MatchesScalarPopcountRange)
{
    const std::size_t k = 300;
    const Bitmask mask = randomMask(k, 0.4, 5);
    const RankedBitmask ranked(mask);
    for (std::size_t lo = 0; lo <= k; lo += 11)
        for (std::size_t hi = 0; hi <= k + 8; hi += 13)
            EXPECT_EQ(ranked.popcountRange(lo, hi),
                      mask.popcountRange(lo, hi));
}

TEST(RankedBitmask, RankOutOfRangeDies)
{
    const Bitmask mask(64);
    const RankedBitmask ranked(mask);
    EXPECT_DEATH(ranked.rank(65), "out of range");
}

/** Reference: matches of a & b over [lo, hi) via the scalar path. */
std::vector<std::size_t>
referenceMatches(const Bitmask& a, const Bitmask& b, std::size_t lo,
                 std::size_t hi)
{
    std::vector<std::size_t> out;
    for (const auto pos : a.setBitsInRange(lo, hi))
        if (b.test(pos))
            out.push_back(pos);
    return out;
}

TEST(ForEachMatch, AgreesWithScalarReference)
{
    for (const std::size_t k : {1ul, 64ul, 67ul, 130ul, 512ul}) {
        const Bitmask a = randomMask(k, 0.5, k * 2 + 1);
        const Bitmask b = randomMask(k, 0.5, k * 3 + 7);
        const RankedBitmask ra(a), rb(b);
        for (std::size_t lo = 0; lo <= k; lo += 29) {
            for (std::size_t hi = lo; hi <= k; hi += 37) {
                const auto want = referenceMatches(a, b, lo, hi);
                std::vector<std::size_t> got;
                forEachMatch(ra, rb, lo, hi,
                             [&](std::size_t pos, std::size_t rank_a,
                                 std::size_t rank_b) {
                                 EXPECT_EQ(rank_a, a.rank(pos));
                                 EXPECT_EQ(rank_b, b.rank(pos));
                                 got.push_back(pos);
                             });
                EXPECT_EQ(got, want) << "k=" << k << " lo=" << lo
                                     << " hi=" << hi;
                EXPECT_EQ(anyMatch(a, b, lo, hi), !want.empty());
            }
        }
    }
}

TEST(ForEachMatch, FullRangeOverloadTracksWeightRank)
{
    const std::size_t k = 200;
    const Bitmask a = randomMask(k, 0.6, 17);
    const Bitmask b = randomMask(k, 0.2, 23);
    const RankedBitmask rb(b);
    const auto want = referenceMatches(a, b, 0, k);
    std::vector<std::size_t> got;
    forEachMatch(a, rb, [&](std::size_t pos, std::size_t rank_b) {
        EXPECT_EQ(rank_b, b.rank(pos));
        got.push_back(pos);
    });
    EXPECT_EQ(got, want);
}

TEST(ForEachMatch, AllOnesBothSides)
{
    const std::size_t k = 130;
    Bitmask a(k), b(k);
    for (std::size_t i = 0; i < k; ++i) {
        a.set(i);
        b.set(i);
    }
    const RankedBitmask ra(a), rb(b);
    std::size_t n = 0;
    forEachMatch(ra, rb, 0, k,
                 [&](std::size_t pos, std::size_t rank_a,
                     std::size_t rank_b) {
                     EXPECT_EQ(pos, n);
                     EXPECT_EQ(rank_a, n);
                     EXPECT_EQ(rank_b, n);
                     ++n;
                 });
    EXPECT_EQ(n, k);
}

TEST(Bitmask, AndPopcountMatchesMaterializedAnd)
{
    for (const std::size_t k : {1ul, 64ul, 67ul, 300ul}) {
        const Bitmask a = randomMask(k, 0.5, k + 11);
        const Bitmask b = randomMask(k, 0.5, k + 13);
        EXPECT_EQ(a.andPopcount(b), (a & b).popcount());
    }
}

} // namespace
} // namespace loas
