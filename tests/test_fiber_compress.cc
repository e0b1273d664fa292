/** @file Tests for the FTP-friendly fiber compression (Fig. 8). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/compiled_layer.hh"
#include "common/rng.hh"
#include "tensor/compress.hh"

namespace loas {
namespace {

SpikeTensor
randomSpikes(std::size_t rows, std::size_t cols, int timesteps,
             double density, std::uint64_t seed)
{
    Rng rng(seed);
    SpikeTensor a(rows, cols, timesteps);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            for (int t = 0; t < timesteps; ++t)
                if (rng.bernoulli(density))
                    a.setSpike(r, c, t);
    return a;
}

TEST(SpikeFiber, Fig8WalkThrough)
{
    // The exact example of Fig. 8: row 0 = [1010-ish...] with silent
    // neurons at positions 1 and 2.
    SpikeTensor a(1, 4, 4);
    a.setWord(0, 0, 0b0101); // fires at t0, t2
    a.setWord(0, 3, 0b1110); // fires at t1, t2, t3
    const SpikeFiber fiber = compressSpikeRow(a, 0);
    EXPECT_EQ(fiber.mask.size(), 4u);
    EXPECT_TRUE(fiber.mask.test(0));
    EXPECT_FALSE(fiber.mask.test(1));
    EXPECT_FALSE(fiber.mask.test(2));
    EXPECT_TRUE(fiber.mask.test(3));
    ASSERT_EQ(fiber.values.size(), 2u);
    EXPECT_EQ(fiber.values[0], 0b0101u);
    EXPECT_EQ(fiber.values[1], 0b1110u);
    // 5 spikes carried by 4 bitmask bits: 125% efficiency (Fig. 8).
    EXPECT_DOUBLE_EQ(compressionEfficiency(a), 1.25);
}

TEST(SpikeFiber, StorageBytes)
{
    SpikeFiber fiber;
    fiber.mask = Bitmask(128);
    fiber.mask.set(0);
    fiber.mask.set(5);
    fiber.values = {1, 2};
    // 16 B mask + 4 B pointer + 2 values x 4 bits = 1 B.
    EXPECT_EQ(fiber.storageBytes(4), 16u + 4 + 1);
    EXPECT_EQ(fiber.metadataBytes(), 20u);
}

TEST(SpikeFiber, RoundTrip)
{
    const SpikeTensor a = randomSpikes(13, 77, 4, 0.2, 42);
    const auto fibers = compressSpikeRows(a);
    const SpikeTensor back = decompressSpikeRows(fibers, 77, 4);
    EXPECT_EQ(a, back);
}

TEST(WeightFiber, ColumnRoundTrip)
{
    Rng rng(3);
    DenseMatrix<std::int8_t> b(50, 20, 0);
    for (std::size_t r = 0; r < b.rows(); ++r)
        for (std::size_t c = 0; c < b.cols(); ++c)
            if (rng.bernoulli(0.1))
                b(r, c) = static_cast<std::int8_t>(
                    1 + rng.uniformInt(100));
    const auto fibers = compressWeightColumns(b);
    ASSERT_EQ(fibers.size(), 20u);
    const auto back = decompressWeightColumns(fibers, 50);
    EXPECT_EQ(b, back);
}

TEST(WeightFiber, RowCompressionMatchesColumnOfTranspose)
{
    DenseMatrix<std::int8_t> b(3, 4, 0);
    b(0, 1) = 5;
    b(2, 3) = -7;
    b(2, 0) = 1;
    const WeightFiber row2 = compressWeightRow(b, 2);
    EXPECT_EQ(row2.nnz(), 2u);
    EXPECT_TRUE(row2.mask.test(0));
    EXPECT_TRUE(row2.mask.test(3));
    EXPECT_EQ(row2.values[0], 1);
    EXPECT_EQ(row2.values[1], -7);
}

TEST(WeightFiber, EmptyColumn)
{
    DenseMatrix<std::int8_t> b(10, 2, 0);
    b(3, 0) = 9;
    const auto fibers = compressWeightColumns(b);
    EXPECT_EQ(fibers[0].nnz(), 1u);
    EXPECT_EQ(fibers[1].nnz(), 0u);
    EXPECT_FALSE(fibers[1].mask.any());
}

TEST(WeightFiber, CompiledColumnsMatchPerColumnWalk)
{
    // compileWeightColumns compresses every column in row-major passes
    // (compressWeightColumns); each fiber, rank table and offset must
    // equal what a strided compressWeightColumn walk per column gives,
    // and every value vector is reserved to its exact size.
    const std::size_t ks[] = {1, 63, 64, 65, 577};
    const std::size_t ns[] = {1, 3, 64, 130};
    const double densities[] = {0.0, 0.05, 0.5, 1.0};
    std::uint64_t seed = 1;
    for (const std::size_t k : ks)
        for (const std::size_t n : ns)
            for (const double density : densities) {
                SCOPED_TRACE("k=" + std::to_string(k) +
                             " n=" + std::to_string(n) +
                             " density=" + std::to_string(density));
                Rng rng(seed++);
                DenseMatrix<std::int8_t> b(k, n, 0);
                for (auto& v : b.data())
                    if (rng.bernoulli(density))
                        v = static_cast<std::int8_t>(
                            1 + rng.uniformInt(255));
                const CompiledWeightFibers got = compileWeightColumns(b);
                ASSERT_EQ(got.fibers.size(), n);
                ASSERT_EQ(got.ranked.size(), n);

                std::vector<WeightFiber> want;
                for (std::size_t c = 0; c < n; ++c)
                    want.push_back(compressWeightColumn(b, c));
                for (std::size_t c = 0; c < n; ++c) {
                    const WeightFiber& fiber = got.fibers[c];
                    EXPECT_EQ(fiber.mask, want[c].mask) << "column " << c;
                    EXPECT_EQ(fiber.values, want[c].values)
                        << "column " << c;
                    EXPECT_EQ(fiber.values.capacity(), fiber.values.size())
                        << "column " << c;
                    EXPECT_EQ(&got.ranked[c].mask(), &fiber.mask);
                    EXPECT_EQ(got.ranked[c].prefixTable(),
                              RankedBitmask(want[c].mask).prefixTable())
                        << "column " << c;
                }
                EXPECT_EQ(got.meta_off,
                          cumulativeOffsets(want, [](const WeightFiber& f) {
                              return f.metadataBytes();
                          }));
                EXPECT_EQ(got.val_off,
                          cumulativeOffsets(want, [](const WeightFiber& f) {
                              return f.values.size();
                          }));
            }
}

TEST(Compress, AggregateBytes)
{
    const SpikeTensor a = randomSpikes(4, 100, 4, 0.3, 9);
    const auto fibers = compressSpikeRows(a);
    std::size_t expected = 0;
    for (const auto& f : fibers)
        expected += f.storageBytes(4);
    EXPECT_EQ(spikeFiberBytes(fibers, 4), expected);
}

TEST(Compress, EfficiencyScalesWithDensity)
{
    const SpikeTensor sparse = randomSpikes(10, 200, 4, 0.05, 1);
    const SpikeTensor dense = randomSpikes(10, 200, 4, 0.5, 1);
    EXPECT_LT(compressionEfficiency(sparse),
              compressionEfficiency(dense));
}

/** Property: compression round-trips for arbitrary shapes/densities. */
class CompressProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CompressProperty, RoundTrip)
{
    Rng rng(GetParam() * 77 + 1);
    const std::size_t rows = 1 + rng.uniformInt(24);
    const std::size_t cols = 1 + rng.uniformInt(300);
    const int timesteps = 1 + static_cast<int>(rng.uniformInt(8));
    const double density = rng.uniform(0.0, 0.6);
    const SpikeTensor a =
        randomSpikes(rows, cols, timesteps, density, GetParam());
    const SpikeTensor back =
        decompressSpikeRows(compressSpikeRows(a), cols, timesteps);
    EXPECT_EQ(a, back);

    // Stored values never include silent neurons.
    for (const auto& fiber : compressSpikeRows(a))
        for (const auto v : fiber.values)
            EXPECT_NE(v, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

} // namespace
} // namespace loas
