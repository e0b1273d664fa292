/** @file Calibration tests for the synthetic workload generator. */

#include <gtest/gtest.h>

#include "snn/metrics.hh"
#include "workload/artifact_io.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

TEST(TruncatedBinomial, KnownValues)
{
    // Unconditioned mean when min_spikes = 0.
    EXPECT_NEAR(truncatedBinomialMean(0.5, 4, 0), 2.0, 1e-12);
    // Conditioning on >= 1 raises the mean.
    EXPECT_GT(truncatedBinomialMean(0.1, 4, 1),
              truncatedBinomialMean(0.1, 4, 0));
    // As p -> 1 the conditioning stops mattering.
    EXPECT_NEAR(truncatedBinomialMean(0.999, 4, 1), 4.0, 0.01);
    // min == t forces the mean to t.
    EXPECT_NEAR(truncatedBinomialMean(0.3, 4, 4), 4.0, 1e-12);
}

TEST(TruncatedBinomial, SolverInverts)
{
    for (const double target : {1.2, 2.0, 2.8, 3.5}) {
        const double p = solveFiringProbability(target, 4, 1);
        EXPECT_NEAR(truncatedBinomialMean(p, 4, 1), target, 1e-6);
    }
    for (const double target : {2.2, 3.0, 3.7}) {
        const double p = solveFiringProbability(target, 4, 2);
        EXPECT_NEAR(truncatedBinomialMean(p, 4, 2), target, 1e-6);
    }
}

TEST(TruncatedBinomial, SolverClampsUnreachableTargets)
{
    // Mean below the conditioned floor: returns ~0 probability.
    const double lo = solveFiringProbability(0.5, 4, 1);
    EXPECT_LT(lo, 0.05);
    // Mean at the ceiling: returns p = 1.
    EXPECT_DOUBLE_EQ(solveFiringProbability(4.0, 4, 1), 1.0);
}

TEST(Generator, HitsPublishedLayerStatistics)
{
    const LayerSpec spec = tables::vgg16L8();
    const LayerData data = generateLayer(spec, 123);
    const SpikeStats stats = computeSpikeStats(data.spikes);
    EXPECT_NEAR(stats.origin_sparsity, spec.spike_sparsity, 0.012);
    EXPECT_NEAR(stats.silent_ratio, spec.silent_ratio, 0.012);
    EXPECT_NEAR(data.weights.sparsity(), spec.weight_sparsity, 0.005);
    EXPECT_EQ(data.spikes.rows(), spec.m);
    EXPECT_EQ(data.spikes.cols(), spec.k);
    EXPECT_EQ(data.weights.rows(), spec.k);
    EXPECT_EQ(data.weights.cols(), spec.n);
}

TEST(Generator, FtModeRaisesSilentRatioAndKillsSingles)
{
    const LayerSpec spec = tables::alexnetL4();
    const LayerData origin = generateLayer(spec, 9, false);
    const LayerData ft = generateLayer(spec, 9, true);
    EXPECT_NEAR(origin.spikes.silentRatio(), spec.silent_ratio, 0.012);
    EXPECT_NEAR(ft.spikes.silentRatio(), spec.silent_ratio_ft, 0.012);
    EXPECT_GT(ft.spikes.silentRatio(), origin.spikes.silentRatio());
    // Preprocessing masks single-spike neurons: the FT workload has
    // none.
    EXPECT_EQ(ft.spikes.singleSpikeCount(), 0u);
}

TEST(Generator, Deterministic)
{
    const LayerSpec spec = tables::resnet19L19();
    const LayerData a = generateLayer(spec, 77);
    const LayerData b = generateLayer(spec, 77);
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.weights, b.weights);
    const LayerData c = generateLayer(spec, 78);
    EXPECT_FALSE(a.spikes == c.spikes);
}

TEST(Generator, DenseSpecProducesDenseData)
{
    LayerSpec spec;
    spec.name = "dense";
    spec.t = 4;
    spec.m = 8;
    spec.n = 8;
    spec.k = 64;
    spec.spike_sparsity = 0.0;
    spec.silent_ratio = 0.0;
    spec.silent_ratio_ft = 0.0;
    spec.weight_sparsity = 0.0;
    const LayerData data = generateLayer(spec, 1);
    EXPECT_EQ(data.spikes.countSpikes(), 8u * 64 * 4);
    EXPECT_EQ(data.weights.zeroCount(), 0u);
}

TEST(Generator, SingleTimestepDegenerates)
{
    LayerSpec spec = tables::vgg16L8();
    spec = tables::withTimesteps(spec, 1);
    const LayerData data = generateLayer(spec, 5);
    // With T=1 the silent ratio IS the bit sparsity.
    EXPECT_NEAR(data.spikes.silentRatio(),
                data.spikes.originSparsity(), 1e-9);
    EXPECT_NEAR(data.spikes.originSparsity(), spec.spike_sparsity,
                0.02);
}

TEST(Generator, AnnLayerSparsityAndPositivity)
{
    LayerSpec spec = tables::vgg16L8();
    spec.spike_sparsity = 0.439; // activation sparsity for Fig. 18
    const AnnLayerData data = generateAnnLayer(spec, 31);
    EXPECT_NEAR(data.acts.sparsity(), 0.439, 0.012);
    for (const auto v : data.acts.data())
        EXPECT_GE(v, 0); // ReLU outputs
    EXPECT_NEAR(data.weights.sparsity(), spec.weight_sparsity, 0.01);
}

TEST(Generator, NetworkGeneration)
{
    const NetworkSpec net = tables::alexnet();
    const auto layers = generateNetwork(net, 2);
    ASSERT_EQ(layers.size(), net.layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l) {
        EXPECT_EQ(layers[l].spec.name, net.layers[l].name);
        EXPECT_EQ(layers[l].spikes.rows(), net.layers[l].m);
    }
}

/**
 * FNV-1a over every spike word (4 bytes, little-endian, row-major, input
 * by input) and every weight byte that generateNetwork emits.
 */
std::uint64_t
networkDigest(const NetworkSpec& net, bool ft, std::size_t batch)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const LayerData& layer : generateNetwork(net, 101, ft, batch)) {
        for (std::size_t b = 0; b < layer.batchSize(); ++b) {
            const SpikeTensor& spikes = layer.input(b);
            for (std::size_t r = 0; r < spikes.rows(); ++r)
                for (std::size_t c = 0; c < spikes.cols(); ++c) {
                    const TimeWord w = spikes.word(r, c);
                    const char bytes[4] = {
                        static_cast<char>(w), static_cast<char>(w >> 8),
                        static_cast<char>(w >> 16),
                        static_cast<char>(w >> 24)};
                    hash = artio::fnv1a(bytes, 4, hash);
                }
        }
        const auto& weights = layer.weights.data();
        hash = artio::fnv1a(reinterpret_cast<const char*>(weights.data()),
                            weights.size(), hash);
    }
    return hash;
}

TEST(Generator, NetworkOutputPinned)
{
    // Every spike word and weight of the three Table II networks, plain
    // and fine-tuned, batch 1 and 2, at seed 101. Any change to what
    // the generator draws, or in which order, moves a digest.
    struct Case
    {
        NetworkSpec net;
        bool ft;
        std::size_t batch;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {tables::alexnet(), false, 1, 0x93b15b79f2d8e754ull},
        {tables::alexnet(), false, 2, 0x5a6467527b8df311ull},
        {tables::alexnet(), true, 1, 0x881665c9dbc2ef2eull},
        {tables::alexnet(), true, 2, 0xa0d68486f3e5c69bull},
        {tables::vgg16(), false, 1, 0x9e0944b8e009414cull},
        {tables::vgg16(), false, 2, 0xf9a8d3e8fe39098full},
        {tables::vgg16(), true, 1, 0x746f03e9b6b53759ull},
        {tables::vgg16(), true, 2, 0x509d793be91d02caull},
        {tables::resnet19(), false, 1, 0xa79a0e6d4dca1fa7ull},
        {tables::resnet19(), false, 2, 0xc6f2d4d7b01c8d19ull},
        {tables::resnet19(), true, 1, 0xda540387fb074c78ull},
        {tables::resnet19(), true, 2, 0x008bd9f10dc06fa8ull},
    };
    for (const Case& c : cases) {
        const std::uint64_t got = networkDigest(c.net, c.ft, c.batch);
        EXPECT_EQ(got, c.digest)
            << c.net.name << " ft=" << c.ft << " batch=" << c.batch;
    }
}

/** Property: generated statistics track the spec across the tables. */
class GeneratorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(GeneratorProperty, PinnedLayersCalibrated)
{
    const std::vector<LayerSpec> specs = {
        tables::alexnetL4(), tables::vgg16L8(), tables::resnet19L19()};
    const LayerSpec spec = specs[static_cast<std::size_t>(GetParam())];
    for (const std::uint64_t seed : {1ull, 2ull}) {
        const LayerData data = generateLayer(spec, seed);
        EXPECT_NEAR(data.spikes.originSparsity(), spec.spike_sparsity,
                    0.015)
            << spec.name;
        EXPECT_NEAR(data.spikes.silentRatio(), spec.silent_ratio, 0.015)
            << spec.name;
        EXPECT_NEAR(data.weights.sparsity(), spec.weight_sparsity,
                    0.005)
            << spec.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Pinned, GeneratorProperty,
                         ::testing::Values(0, 1, 2));

} // namespace
} // namespace loas
