/**
 * @file
 * The wave join (InnerJoinUnit::joinWave, AVX-512) against the
 * per-item walk it replaces on full tiles:
 *
 *  1. Lane identity: every lane of a wave equals join() of that lane's
 *     row on every field, runs included, across timesteps, chunk
 *     widths, FIFO depths, lane counts and cache-line sizes.
 *  2. Simulator identity: LoasSim at the resolved ISA reproduces the
 *     scalar ISA's RunResult and lastOutput() on random layers whose
 *     shapes cover full tiles, a short last tile and M < PEs, at batch
 *     1 and 3, with silent rows, all-ones spike trains, empty weight
 *     columns and chunks dense enough to fill the FIFOs.
 *
 * Both need the wave path: where the resolved ISA is not AVX-512 (the
 * host lacks it, or LOAS_ISA picks another) they skip and name it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/rng.hh"
#include "core/inner_join.hh"
#include "core/kernel_dispatch.hh"
#include "core/loas_sim.hh"

namespace loas {
namespace {

/** Skip unless the resolved ISA runs the wave join. */
#define SKIP_WITHOUT_WAVE_JOIN()                                           \
    do {                                                                   \
        if (kernels::resolvedIsa() != kernels::Isa::Avx512)                \
            GTEST_SKIP() << "resolved ISA is "                             \
                         << kernels::isaName(kernels::resolvedIsa())       \
                         << ": the AVX-512 wave join did not run";         \
    } while (0)

/** Restores the process ISA on scope exit, whatever the test did. */
class IsaGuard
{
  public:
    IsaGuard() : saved_(kernels::resolvedIsa()) {}
    ~IsaGuard() { kernels::setIsa(saved_); }

  private:
    kernels::Isa saved_;
};

/** A spike word with each of `t` bits set at odds `dt`, never zero. */
TimeWord
randomWord(Rng& rng, int t, double dt)
{
    TimeWord w = 0;
    while (w == 0)
        for (int b = 0; b < t; ++b)
            if (rng.bernoulli(dt))
                w |= TimeWord{1} << b;
    return w;
}

/**
 * Density of a random row or column: silent/empty, dense enough to fill
 * a FIFO, or in between.
 */
double
randomDensity(Rng& rng)
{
    const double densities[] = {0.0, 0.03, 0.3, 0.7, 0.97};
    return densities[rng.uniformInt(5)];
}

/** Spike fiber of `k` positions; dt = 1 gives all-ones trains. */
SpikeFiber
randomSpikeFiber(Rng& rng, std::size_t k, int t)
{
    const double density = randomDensity(rng);
    const double dt = rng.bernoulli(0.3) ? 1.0 : rng.uniform(0.2, 0.9);
    SpikeFiber f;
    f.mask = Bitmask(k);
    for (std::size_t i = 0; i < k; ++i)
        if (rng.bernoulli(density)) {
            f.mask.set(i);
            f.values.push_back(randomWord(rng, t, dt));
        }
    return f;
}

WeightFiber
randomWeightFiber(Rng& rng, std::size_t k)
{
    const double density = randomDensity(rng);
    WeightFiber f;
    f.mask = Bitmask(k);
    for (std::size_t i = 0; i < k; ++i)
        if (rng.bernoulli(density)) {
            f.mask.set(i);
            const auto magnitude =
                static_cast<std::int32_t>(1 + rng.uniformInt(127));
            f.values.push_back(rng.bernoulli(0.5) ? magnitude : -magnitude);
        }
    return f;
}

void
expectJoinEq(const JoinResult& got, const JoinResult& want,
             const std::string& what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.sums, want.sums) << what;
    EXPECT_EQ(got.matches, want.matches) << what;
    EXPECT_EQ(got.corrections, want.corrections) << what;
    EXPECT_EQ(got.spike_value_bytes, want.spike_value_bytes) << what;
    EXPECT_EQ(got.runs, want.runs) << what;
    EXPECT_EQ(got.ops.acc_ops, want.ops.acc_ops) << what;
    EXPECT_EQ(got.ops.correction_ops, want.ops.correction_ops) << what;
    EXPECT_EQ(got.ops.mac_ops, want.ops.mac_ops) << what;
    EXPECT_EQ(got.ops.fast_prefix_ops, want.ops.fast_prefix_ops) << what;
    EXPECT_EQ(got.ops.laggy_prefix_ops, want.ops.laggy_prefix_ops)
        << what;
    EXPECT_EQ(got.ops.fifo_ops, want.ops.fifo_ops) << what;
    EXPECT_EQ(got.ops.lif_ops, want.ops.lif_ops) << what;
    EXPECT_EQ(got.ops.mask_and_ops, want.ops.mask_and_ops) << what;
    EXPECT_EQ(got.ops.merge_ops, want.ops.merge_ops) << what;
    EXPECT_EQ(got.ops.encode_ops, want.ops.encode_ops) << what;
}

TEST(WaveJoin, EveryLaneMatchesTheWalk)
{
    SKIP_WITHOUT_WAVE_JOIN();
    const int timesteps[] = {1, 2, 4, 7, 8, 13, 16};
    const std::size_t chunks[] = {1, 7, 64, 100, 128, 256};
    const std::size_t lane_counts[] = {1, 3, 8, 15, 16};
    const std::uint32_t lines[] = {32, 64, 128};
    Rng rng(18);
    WaveScratch wave;
    JoinScratch walk;
    for (int trial = 0; trial < 150; ++trial) {
        InnerJoinConfig config;
        config.fifo_depth = 1 + rng.uniformInt(16);
        config.chunk_bits = chunks[rng.uniformInt(6)];
        const int t = timesteps[rng.uniformInt(7)];
        const std::size_t lanes = lane_counts[rng.uniformInt(5)];
        std::size_t k = 1 + rng.uniformInt(700);
        if (k % 64 == 0)
            ++k;
        const InnerJoinUnit unit(config, t, lines[rng.uniformInt(3)]);
        ASSERT_TRUE(unit.waveFits(lanes, k));

        std::vector<SpikeFiber> rows;
        std::vector<RankedBitmask> ranks;
        std::vector<std::uint64_t> bases;
        rows.reserve(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            rows.push_back(randomSpikeFiber(rng, k, t));
            bases.push_back(0x4000'0000 + rng.uniformInt(1u << 20));
        }
        for (const auto& row : rows)
            ranks.emplace_back(row.mask);
        ASSERT_TRUE(unit.loadTile(rows.data(), bases.data(), lanes, wave));

        // Several columns stream past one loaded tile.
        for (int col = 0; col < 4; ++col) {
            const WeightFiber fb = randomWeightFiber(rng, k);
            const RankedBitmask rb(fb.mask);
            const JoinResult* got = unit.joinWave(fb, rb, wave);
            for (std::size_t l = 0; l < lanes; ++l) {
                const JoinResult& want = unit.join(rows[l], ranks[l], fb,
                                                   rb, bases[l], walk);
                expectJoinEq(got[l], want,
                             "trial " + std::to_string(trial) + " col " +
                                 std::to_string(col) + " lane " +
                                 std::to_string(l) + ": T=" +
                                 std::to_string(t) + " depth=" +
                                 std::to_string(config.fifo_depth) +
                                 " chunk=" +
                                 std::to_string(config.chunk_bits) +
                                 " k=" + std::to_string(k));
            }
        }
    }
}

TEST(WaveJoin, BoundsFallBackToTheWalk)
{
    SKIP_WITHOUT_WAVE_JOIN();
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    EXPECT_TRUE(unit.waveFits(16, 4608));
    EXPECT_FALSE(unit.waveFits(0, 4608));
    EXPECT_FALSE(unit.waveFits(17, 4608));
    EXPECT_FALSE(unit.waveFits(16, std::size_t{1} << 26));
    EXPECT_FALSE(InnerJoinUnit(InnerJoinConfig{}, 17).waveFits(16, 64));
    InnerJoinConfig deep;
    deep.fifo_depth = 17;
    EXPECT_FALSE(InnerJoinUnit(deep, 4).waveFits(16, 64));

    // A value address past 32 bits: the tile is not loaded.
    SpikeFiber row;
    row.mask = Bitmask(64);
    row.mask.set(3);
    row.values.push_back(1);
    const std::uint64_t base = (std::uint64_t{1} << 32) - 1;
    WaveScratch wave;
    EXPECT_FALSE(unit.loadTile(&row, &base, 1, wave));

    // Other ISAs never take the wave path.
    IsaGuard guard;
    kernels::setIsa(kernels::Isa::Scalar);
    EXPECT_FALSE(InnerJoinUnit(InnerJoinConfig{}, 4).waveFits(16, 64));
}

// ---------------------------------------------------------------------
// Simulator identity: resolved ISA vs scalar, whole layers.
// ---------------------------------------------------------------------

void
fillSpikes(Rng& rng, SpikeTensor& spikes)
{
    for (std::size_t r = 0; r < spikes.rows(); ++r) {
        const SpikeFiber row =
            randomSpikeFiber(rng, spikes.cols(), spikes.timesteps());
        std::size_t next = 0;
        row.mask.forEachSet([&](std::size_t c) {
            spikes.setWord(r, c, row.values[next++]);
        });
    }
}

LayerData
randomLayer(Rng& rng, std::size_t m, std::size_t n, std::size_t k, int t,
            std::size_t batch)
{
    LayerSpec spec;
    spec.name = "wave";
    spec.t = t;
    spec.m = m;
    spec.n = n;
    spec.k = k;
    LayerData layer{spec, SpikeTensor(m, k, t),
                    DenseMatrix<std::int8_t>(k, n, 0), {}};
    fillSpikes(rng, layer.spikes);
    for (std::size_t b = 1; b < batch; ++b) {
        layer.extra_inputs.emplace_back(m, k, t);
        fillSpikes(rng, layer.extra_inputs.back());
    }
    for (std::size_t c = 0; c < n; ++c) {
        const WeightFiber col = randomWeightFiber(rng, k);
        std::size_t next = 0;
        col.mask.forEachSet([&](std::size_t r) {
            layer.weights(r, c) =
                static_cast<std::int8_t>(col.values[next++]);
        });
    }
    return layer;
}

void
expectRunResultEq(const RunResult& got, const RunResult& want,
                  const std::string& what)
{
    EXPECT_EQ(got.accel, want.accel) << what;
    EXPECT_EQ(got.workload, want.workload) << what;
    EXPECT_EQ(got.compute_cycles, want.compute_cycles) << what;
    EXPECT_EQ(got.dram_cycles, want.dram_cycles) << what;
    EXPECT_EQ(got.total_cycles, want.total_cycles) << what;
    EXPECT_EQ(got.cache_hits, want.cache_hits) << what;
    EXPECT_EQ(got.cache_misses, want.cache_misses) << what;
    EXPECT_EQ(got.static_scale, want.static_scale) << what;
    EXPECT_EQ(got.ops.acc_ops, want.ops.acc_ops) << what;
    EXPECT_EQ(got.ops.correction_ops, want.ops.correction_ops) << what;
    EXPECT_EQ(got.ops.mac_ops, want.ops.mac_ops) << what;
    EXPECT_EQ(got.ops.fast_prefix_ops, want.ops.fast_prefix_ops) << what;
    EXPECT_EQ(got.ops.laggy_prefix_ops, want.ops.laggy_prefix_ops)
        << what;
    EXPECT_EQ(got.ops.fifo_ops, want.ops.fifo_ops) << what;
    EXPECT_EQ(got.ops.lif_ops, want.ops.lif_ops) << what;
    EXPECT_EQ(got.ops.mask_and_ops, want.ops.mask_and_ops) << what;
    EXPECT_EQ(got.ops.merge_ops, want.ops.merge_ops) << what;
    EXPECT_EQ(got.ops.encode_ops, want.ops.encode_ops) << what;
    for (int c = 0; c < kNumCategories; ++c) {
        EXPECT_EQ(got.traffic.dram_read[c], want.traffic.dram_read[c])
            << what << " category " << c;
        EXPECT_EQ(got.traffic.dram_write[c], want.traffic.dram_write[c])
            << what << " category " << c;
        EXPECT_EQ(got.traffic.sram_read[c], want.traffic.sram_read[c])
            << what << " category " << c;
        EXPECT_EQ(got.traffic.sram_write[c], want.traffic.sram_write[c])
            << what << " category " << c;
    }
}

TEST(WaveJoin, LoasSimMatchesScalarOnRandomLayers)
{
    SKIP_WITHOUT_WAVE_JOIN();
    IsaGuard guard;
    const kernels::Isa wave_isa = kernels::resolvedIsa();
    const int timesteps[] = {1, 2, 4, 7, 8, 16, 32};
    const std::size_t chunks[] = {64, 100, 128, 256};
    const std::size_t depths[] = {1, 2, 8, 16};
    const std::size_t pe_counts[] = {1, 3, 8, 16, 32};
    Rng rng(1813);
    int wave_layers = 0;
    for (int trial = 0; trial < 140; ++trial) {
        LoasConfig config;
        const int t = timesteps[trial % 7];
        config.timesteps = t;
        config.join.chunk_bits = chunks[rng.uniformInt(4)];
        config.join.fifo_depth = depths[rng.uniformInt(4)];
        config.num_pes = static_cast<int>(pe_counts[trial % 5]);
        if (rng.bernoulli(0.5))
            config.cache.size_bytes = 2048;
        const auto pes = static_cast<std::size_t>(config.num_pes);
        // M: full tiles only, full tiles plus a short one, or M < PEs.
        std::size_t m = pes * (1 + rng.uniformInt(3));
        switch (rng.uniformInt(3)) {
        case 0:
            break;
        case 1:
            m += 1 + rng.uniformInt(pes);
            if (m % pes == 0)
                ++m;
            break;
        default:
            m = 1 + rng.uniformInt(pes);
            break;
        }
        const std::size_t n = 1 + rng.uniformInt(12);
        std::size_t k = 1 + rng.uniformInt(400);
        if (k % 64 == 0)
            ++k;
        const std::size_t batch = rng.bernoulli(0.5) ? 1 : 3;
        const LayerData layer = randomLayer(rng, m, n, k, t, batch);
        const std::string what =
            "trial " + std::to_string(trial) + ": T=" + std::to_string(t) +
            " chunk=" + std::to_string(config.join.chunk_bits) +
            " depth=" + std::to_string(config.join.fifo_depth) +
            " pes=" + std::to_string(pes) + " m=" + std::to_string(m) +
            " n=" + std::to_string(n) + " k=" + std::to_string(k) +
            " cache=" + std::to_string(config.cache.size_bytes) +
            " batch=" + std::to_string(batch);
        if (m >= pes &&
            InnerJoinUnit(config.join, t, config.cache.line_bytes)
                .waveFits(pes, k))
            ++wave_layers;

        kernels::setIsa(kernels::Isa::Scalar);
        LoasSim reference(config);
        const CompiledLayer compiled = reference.prepare(layer);
        std::vector<RunResult> want;
        for (std::size_t b = 0; b < batch; ++b)
            want.push_back(reference.executeInput(compiled, b));

        kernels::setIsa(wave_isa);
        LoasSim sim(config);
        for (std::size_t b = 0; b < batch; ++b)
            expectRunResultEq(sim.executeInput(compiled, b), want[b],
                              what + " input " + std::to_string(b));
        EXPECT_EQ(sim.lastOutput(), reference.lastOutput()) << what;
    }
    // Most layers hold a full tile of a shape the wave join takes.
    EXPECT_GE(wave_layers, 60);
}

} // namespace
} // namespace loas
