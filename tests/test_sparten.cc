/** @file Tests for the SparTen-SNN / SparTen-ANN baseline. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/json.hh"
#include "baselines/sparten.hh"
#include "common/bitutil.hh"
#include "common/rng.hh"
#include "core/kernel_dispatch.hh"
#include "core/scheduler.hh"
#include "mem/memory_system.hh"
#include "snn/reference.hh"
#include "tensor/ranked_bitmask.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

TEST(Sparten, OutputMatchesReference)
{
    const LayerData layer = generateLayer(tables::vgg16L8(), 1);
    SpartenSim sim;
    sim.runLayer(layer);
    const SpikeTensor expected = referenceSnnLayer(
        layer.spikes, layer.weights, SpartenConfig{}.lif);
    EXPECT_EQ(sim.lastOutput(), expected);
}

TEST(Sparten, SequentialTimestepsCostMoreThanOne)
{
    // The core observation of the paper: T sequential timesteps cost
    // roughly T mask scans plus per-timestep restarts.
    LayerSpec spec = tables::vgg16L8();
    const LayerData t4 = generateLayer(spec, 2);
    const LayerSpec spec1 = tables::withTimesteps(spec, 1);
    const LayerData t1 = generateLayer(spec1, 2);
    SpartenSim sim;
    const auto r4 = sim.runLayer(t4);
    const auto r1 = sim.runLayer(t1);
    EXPECT_GT(r4.compute_cycles,
              3 * r1.compute_cycles);
}

TEST(Sparten, FetchesDenseSpikeTrains)
{
    // SparTen-SNN uses the raw spike train as bitmask-and-data: every
    // bit of A crosses the SRAM interface, every timestep (Section
    // II-D), unlike LoAS's non-silent-only fetches.
    const LayerData layer = generateLayer(tables::vgg16L8(), 3);
    SpartenSim sim;
    const RunResult r = sim.runLayer(layer);
    const std::uint64_t input_sram =
        r.traffic.sramBytes(TensorCategory::Input);
    // One full dense pass per (output-column, timestep).
    const std::uint64_t dense_per_pass =
        layer.spikes.denseBytesPerTimestep();
    EXPECT_GE(input_sram,
              dense_per_pass * layer.spec.n * layer.spec.t / 2);
}

TEST(Sparten, AnnModeRunsAndCountsMacs)
{
    LayerSpec spec = tables::vgg16L8();
    spec.spike_sparsity = 0.439; // ANN activation sparsity (Fig. 18)
    const AnnLayerData ann = generateAnnLayer(spec, 4);
    SpartenSim sim;
    const RunResult r = sim.execute(sim.prepareAnn(ann));
    EXPECT_EQ(r.accel, "SparTen-ANN");
    EXPECT_GT(r.ops.mac_ops, 0u);
    EXPECT_EQ(r.ops.acc_ops, 0u);
    // Two fast prefix circuits per match.
    EXPECT_EQ(r.ops.fast_prefix_ops, 2 * r.ops.mac_ops);
    EXPECT_GT(r.total_cycles, 0u);
}

TEST(Sparten, WaveParallelismUsesAllPes)
{
    // 16 PEs: doubling the PE count roughly halves the cycles.
    const LayerData layer = generateLayer(tables::vgg16L8(), 5);
    SpartenConfig c16;
    SpartenConfig c32;
    c32.num_pes = 32;
    SpartenSim s16(c16), s32(c32);
    const auto r16 = s16.runLayer(layer);
    const auto r32 = s32.runLayer(layer);
    EXPECT_LT(r32.compute_cycles, r16.compute_cycles * 3 / 4);
}

TEST(SpartenFused, OutputMatchesSequentialOnBothNetworks)
{
    // The fused temporally-parallel datapath is a pure perf change:
    // spike outputs must be bit-identical to the sequential baseline
    // (and to the reference) on representative layers of both
    // networks.
    for (const auto& spec : {tables::alexnetL4(), tables::vgg16L8()}) {
        SCOPED_TRACE(spec.name);
        const LayerData layer = generateLayer(spec, 11);
        SpartenSim sequential;
        SpartenConfig fused_config;
        fused_config.fused = true;
        SpartenSim fused(fused_config);
        sequential.runLayer(layer);
        fused.runLayer(layer);
        EXPECT_EQ(fused.lastOutput(), sequential.lastOutput());
        EXPECT_EQ(fused.lastOutput(),
                  referenceSnnLayer(layer.spikes, layer.weights,
                                    SpartenConfig{}.lif));
    }
}

TEST(SpartenFused, OneMaskScanForAllTimesteps)
{
    // The tentpole: the fused datapath streams each weight-column mask
    // once instead of once per timestep, so its compute cycles must
    // undercut the sequential baseline by well over half at T >= 4.
    const LayerData layer = generateLayer(tables::vgg16L8(), 13);
    ASSERT_GE(layer.spec.t, 4);
    SpartenSim sequential;
    SpartenConfig fused_config;
    fused_config.fused = true;
    SpartenSim fused(fused_config);
    const auto r_seq = sequential.runLayer(layer);
    const auto r_fused = fused.runLayer(layer);
    EXPECT_LT(r_fused.compute_cycles, r_seq.compute_cycles / 2);
    EXPECT_EQ(r_fused.accel, "SparTen-SNN(f)");
    EXPECT_EQ(r_seq.accel, "SparTen-SNN");
}

TEST(SpartenFused, CollapseThresholdEdgesPreserveOutputs)
{
    // Threshold 0 forces the pseudo-accumulator datapath onto every
    // non-empty row, threshold 1 restricts it to fully dense rows;
    // both are exact, so outputs never move.
    const LayerData layer = generateLayer(tables::alexnetL4(), 17);
    SpartenSim sequential;
    sequential.runLayer(layer);
    for (const double threshold : {0.0, 0.5, 1.0}) {
        SCOPED_TRACE(threshold);
        SpartenConfig config;
        config.fused = true;
        config.collapse_threshold = threshold;
        SpartenSim fused(config);
        fused.runLayer(layer);
        EXPECT_EQ(fused.lastOutput(), sequential.lastOutput());
    }
}

TEST(SpartenFused, SingleTimestepLayerRuns)
{
    // T=1 is the degenerate fusion: nothing to fan out, but the packed
    // artifact and both collapse extremes must still be exact.
    const LayerSpec spec = tables::withTimesteps(tables::alexnetL4(), 1);
    const LayerData layer = generateLayer(spec, 19);
    SpartenSim sequential;
    sequential.runLayer(layer);
    for (const double threshold : {0.0, 1.0}) {
        SpartenConfig config;
        config.fused = true;
        config.collapse_threshold = threshold;
        SpartenSim fused(config);
        fused.runLayer(layer);
        EXPECT_EQ(fused.lastOutput(), sequential.lastOutput());
    }
}

TEST(SpartenFused, OddChunkWidthsPreserveOutputs)
{
    // Chunk widths that do not divide K (and K % 64 != 0) exercise the
    // trailing-chunk accounting of both cycle models without touching
    // functional outputs.
    LayerSpec spec = tables::alexnetL4();
    spec.k = 130;
    const LayerData layer = generateLayer(spec, 23);
    const SpikeTensor expected = referenceSnnLayer(
        layer.spikes, layer.weights, SpartenConfig{}.lif);
    for (const std::size_t chunk_bits : {48ul, 100ul, 128ul}) {
        SCOPED_TRACE(chunk_bits);
        SpartenConfig config;
        config.chunk_bits = chunk_bits;
        config.fused = true;
        SpartenSim fused(config);
        fused.runLayer(layer);
        EXPECT_EQ(fused.lastOutput(), expected);
    }
}

/** Property: SparTen-SNN is functionally exact too. */
class SpartenProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SpartenProperty, BitExactAgainstReference)
{
    Rng rng(GetParam() * 7 + 1);
    LayerSpec spec;
    spec.name = "prop";
    spec.t = 1 + static_cast<int>(rng.uniformInt(4));
    spec.m = 1 + rng.uniformInt(12);
    spec.n = 1 + rng.uniformInt(24);
    spec.k = 1 + rng.uniformInt(300);
    spec.spike_sparsity = rng.uniform(0.3, 0.9);
    spec.silent_ratio = spec.spike_sparsity * 0.7;
    spec.silent_ratio_ft = spec.silent_ratio;
    spec.weight_sparsity = rng.uniform(0.3, 0.95);
    const LayerData layer = generateLayer(spec, GetParam());
    SpartenSim sim;
    sim.runLayer(layer);
    const SpikeTensor expected = referenceSnnLayer(
        layer.spikes, layer.weights, SpartenConfig{}.lif);
    EXPECT_EQ(sim.lastOutput(), expected);

    // The fused datapath under a random collapse threshold is exact on
    // the same random layer.
    SpartenConfig fused_config;
    fused_config.fused = true;
    fused_config.collapse_threshold = rng.uniform(0.0, 1.0);
    SpartenSim fused(fused_config);
    fused.runLayer(layer);
    EXPECT_EQ(fused.lastOutput(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpartenProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---------------------------------------------------------------------
// Oracle: the per-timestep sequential datapath
// ---------------------------------------------------------------------

/**
 * The sequential SparTen-SNN datapath evaluated one timestep at a
 * time, the way the paper describes it: per-timestep bitmask views
 * built from the spike tensor, one single-rank forEachMatch per
 * (neuron, timestep), and timestepJoinCycles charged per timestep.
 * Same address map and access order as SpartenSim; the oracle for its
 * single fan-out join over the packed operand. Writes the layer's
 * output spikes to `output`.
 */
RunResult
perTimestepReference(const SpartenConfig& config, const SpikeTensor& spikes,
                     const CompiledWeightFibers& b,
                     const std::string& workload, SpikeTensor& output)
{
    constexpr std::uint64_t kBaseA = 0x0000'0000ull;
    constexpr std::uint64_t kBaseBMeta = 0x8000'0000ull;
    constexpr std::uint64_t kBaseBValues = 0xc000'0000ull;

    const int timesteps = spikes.timesteps();
    const auto tcount = static_cast<std::size_t>(timesteps);
    const std::size_t m = spikes.rows();
    const std::size_t k = spikes.cols();
    const std::size_t n = b.fibers.size();
    const std::size_t chunks = ceilDiv(k, config.chunk_bits);
    const std::size_t row_bytes = ceilDiv<std::size_t>(k, 8);

    // Timestep-major views: row r at timestep t is masks[t * m + r].
    std::vector<Bitmask> masks(tcount * m, Bitmask(k));
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < k; ++c)
            for (std::size_t t = 0; t < tcount; ++t)
                if ((spikes.word(r, c) >> t) & 1)
                    masks[t * m + r].set(c);

    MemorySystem mem(config.cache, config.dram);
    const Scheduler scheduler(m, n, config.num_pes);
    RunResult result;
    result.accel = "SparTen-SNN";
    result.workload = workload;
    output.reset(m, n, timesteps);
    std::vector<std::int32_t> sums(tcount, 0);
    std::vector<WorkItem> items;
    std::uint64_t dram_bytes_seen = 0;
    for (std::size_t w = 0; w < scheduler.waveCount(); ++w) {
        scheduler.wave(w, items);
        std::uint64_t prev_col = ~0ull;
        for (const auto& item : items) {
            if (item.n == prev_col)
                continue;
            prev_col = item.n;
            mem.read(TensorCategory::Meta, kBaseBMeta + b.meta_off[item.n],
                     b.fibers[item.n].metadataBytes());
            mem.read(TensorCategory::Weight,
                     kBaseBValues + b.val_off[item.n],
                     b.fibers[item.n].values.size());
        }
        std::uint64_t wave_cycles = 0;
        for (const auto& item : items) {
            const WeightFiber& fb = b.fibers[item.n];
            std::uint64_t pe_cycles = 0;
            for (std::size_t t = 0; t < tcount; ++t) {
                mem.read(TensorCategory::Input,
                         kBaseA + (t * m + item.m) * row_bytes, row_bytes);
                std::uint64_t matches = 0;
                std::int32_t acc = 0;
                forEachMatch(masks[t * m + item.m], b.ranked[item.n],
                             [&](std::size_t, std::size_t b_off) {
                                 acc += fb.values[b_off];
                                 ++matches;
                             });
                sums[t] = acc;
                result.ops.fast_prefix_ops += matches;
                result.ops.acc_ops += matches;
                pe_cycles += config.timestepJoinCycles(chunks, matches);
            }
            result.ops.mask_and_ops += chunks * tcount;
            output.setWord(item.m, item.n,
                           lifAcrossTimesteps(sums, config.lif));
            result.ops.lif_ops += tcount;
            wave_cycles = std::max(wave_cycles, pe_cycles);
        }
        wave_cycles += config.wave_overhead_cycles;
        result.compute_cycles += wave_cycles;
        const std::uint64_t dram_now = mem.dramBytes();
        result.total_cycles += std::max(
            wave_cycles, mem.dramCyclesFor(dram_now - dram_bytes_seen));
        dram_bytes_seen = dram_now;
    }
    mem.streamWrite(TensorCategory::Output,
                    ceilDiv<std::uint64_t>(m * n * tcount, 8));
    mem.flushCache();
    result.total_cycles +=
        mem.dramCyclesFor(mem.dramBytes() - dram_bytes_seen);
    result.dram_cycles = mem.dramCycles();
    result.traffic = mem.stats();
    result.cache_hits = mem.cacheHits();
    result.cache_misses = mem.cacheMisses();
    return result;
}

/** Random spikes: some all-silent rows, then per word a silent draw
 *  and per-bit firing at a row density from nearly silent to all
 *  ones. */
SpikeTensor
randomSpikes(Rng& rng, std::size_t m, std::size_t k, int timesteps)
{
    SpikeTensor spikes(m, k, timesteps);
    for (std::size_t r = 0; r < m; ++r) {
        if (rng.bernoulli(0.1))
            continue;
        const double silent = rng.uniform(0.0, 0.95);
        const double fire = rng.bernoulli(0.2) ? 1.0 : rng.uniform();
        for (std::size_t c = 0; c < k; ++c) {
            if (rng.bernoulli(silent))
                continue;
            TimeWord word = 0;
            for (int t = 0; t < timesteps; ++t)
                if (rng.bernoulli(fire))
                    word |= TimeWord{1} << t;
            spikes.setWord(r, c, word);
        }
    }
    return spikes;
}

/** A random layer with k % 64 != 0, `batch` inputs and some all-zero
 *  weight columns. */
LayerData
randomOracleLayer(Rng& rng, int timesteps, std::size_t batch)
{
    LayerSpec spec;
    spec.name = "oracle";
    spec.t = timesteps;
    spec.m = 1 + rng.uniformInt(40);
    spec.n = 1 + rng.uniformInt(40);
    do {
        spec.k = 1 + rng.uniformInt(300);
    } while (spec.k % 64 == 0);

    LayerData layer{spec, randomSpikes(rng, spec.m, spec.k, timesteps),
                    DenseMatrix<std::int8_t>(spec.k, spec.n, 0), {}};
    for (std::size_t input = 1; input < batch; ++input)
        layer.extra_inputs.push_back(
            randomSpikes(rng, spec.m, spec.k, timesteps));
    for (std::size_t c = 0; c < spec.n; ++c) {
        if (rng.bernoulli(0.1))
            continue;
        const double density = rng.uniform();
        for (std::size_t r = 0; r < spec.k; ++r)
            if (rng.bernoulli(density))
                layer.weights(r, c) = static_cast<std::int8_t>(
                    static_cast<int>(rng.uniformInt(255)) - 127);
    }
    return layer;
}

TEST(SpartenOracle, OneFanoutJoinMatchesThePerTimestepDatapath)
{
    constexpr int kTimesteps[] = {1, 2, 4, 7, 8, 16, 32};
    constexpr std::size_t kChunkBits[] = {64, 100, 128};
    constexpr int kPes[] = {1, 3, 16};
    const kernels::Isa saved = kernels::resolvedIsa();
    for (const kernels::Isa isa :
         {kernels::Isa::Scalar, kernels::bestSupportedIsa()}) {
        kernels::setIsa(isa);
        SCOPED_TRACE(kernels::isaName(isa));
        Rng rng(0x5a27e4);
        for (int trial = 0; trial < 84; ++trial) {
            const int timesteps = kTimesteps[trial % 7];
            const std::size_t batch = trial % 2 == 0 ? 1 : 3;
            SpartenConfig config;
            config.chunk_bits = kChunkBits[rng.uniformInt(3)];
            config.num_pes = kPes[rng.uniformInt(3)];
            // A 2 KB cache in half the trials: evictions make the
            // order and addresses of every access visible in the
            // hit, miss and DRAM counts.
            if (rng.bernoulli(0.5))
                config.cache.size_bytes = 2048;
            const LayerData layer =
                randomOracleLayer(rng, timesteps, batch);
            SCOPED_TRACE("trial " + std::to_string(trial) + ": T=" +
                         std::to_string(timesteps) + " m=" +
                         std::to_string(layer.spec.m) + " k=" +
                         std::to_string(layer.spec.k) + " n=" +
                         std::to_string(layer.spec.n) + " chunk=" +
                         std::to_string(config.chunk_bits) + " pes=" +
                         std::to_string(config.num_pes) + " cache=" +
                         std::to_string(config.cache.size_bytes));

            SpartenSim sim(config);
            const CompiledLayer compiled = sim.prepare(layer);
            const CompiledWeightFibers b =
                compileWeightColumns(layer.weights);
            for (std::size_t input = 0; input < batch; ++input) {
                SpikeTensor expected_output;
                const RunResult expected = perTimestepReference(
                    config, layer.input(input), b, layer.spec.name,
                    expected_output);
                const RunResult got = sim.executeInput(compiled, input, 0);
                EXPECT_EQ(json::toJson(got), json::toJson(expected))
                    << "input " << input;
                if (input == 0) {
                    EXPECT_EQ(sim.lastOutput(), expected_output);
                }
            }
        }
    }
    kernels::setIsa(saved);
}

} // namespace
} // namespace loas
