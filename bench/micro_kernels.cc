/**
 * @file
 * Kernel-level google-benchmark microbenchmarks: the host-side
 * throughput of the core simulator kernels (inner join, output
 * compression, LIF evaluation, bitmask rank, cache access). These
 * measure the simulator itself, complementing the cycle-level results
 * of the figure harnesses.
 */

#include <benchmark/benchmark.h>

#include "api/registry.hh"
#include "common/alloc_hook.hh"
#include "common/rng.hh"
#include "core/compressor.hh"
#include "core/fused_join.hh"
#include "core/inner_join.hh"
#include "core/plif.hh"
#include "mem/memory_system.hh"
#include "snn/reference.hh"
#include "tensor/ranked_bitmask.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

#include "match_walks.hh"

namespace {

using namespace loas;

std::pair<SpikeFiber, WeightFiber>
makeFibers(std::size_t k, double da, double db, std::uint64_t seed)
{
    Rng rng(seed);
    SpikeFiber fa;
    fa.mask = Bitmask(k);
    WeightFiber fb;
    fb.mask = Bitmask(k);
    for (std::size_t i = 0; i < k; ++i) {
        if (rng.bernoulli(da)) {
            fa.mask.set(i);
            fa.values.push_back(
                static_cast<TimeWord>(1 + rng.uniformInt(15)));
        }
        if (rng.bernoulli(db)) {
            fb.mask.set(i);
            fb.values.push_back(
                static_cast<std::int32_t>(rng.uniformInt(255)) - 127);
        }
    }
    return {fa, fb};
}

void
BM_InnerJoin(benchmark::State& state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto [fa, fb] = makeFibers(k, 0.25, 0.03, 7);
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    for (auto _ : state) {
        const JoinResult r = unit.join(fa, fb);
        benchmark::DoNotOptimize(r.sums);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k));
}
BENCHMARK(BM_InnerJoin)->Arg(512)->Arg(2304)->Arg(4608);

// The production execute() path: compiled rank tables plus a reused
// JoinScratch — steady state allocates nothing, so this measures the
// pure word-parallel kernel. Compare against BM_InnerJoin (one-shot
// convenience path) to see the scratch + rank-table amortization.
void
BM_InnerJoinScratch(benchmark::State& state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    const auto [fa, fb] = makeFibers(k, 0.25, 0.03, 7);
    const RankedBitmask ra(fa.mask), rb(fb.mask);
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    JoinScratch scratch;
    unit.join(fa, ra, fb, rb, 0, scratch); // warm the scratch
    for (auto _ : state) {
        const JoinResult& r = unit.join(fa, ra, fb, rb, 0, scratch);
        benchmark::DoNotOptimize(r.matches);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(k));
}
BENCHMARK(BM_InnerJoinScratch)->Arg(512)->Arg(2304)->Arg(4608);

/**
 * One spike fiber at `timesteps` bits per word plus the per-timestep
 * bitmask views the sequential datapath scans — both views of the same
 * operand, so the two temporal-join benches compute identical sums.
 */
struct TemporalOperands
{
    SpikeFiber fa;
    std::vector<Bitmask> t_masks;
};

TemporalOperands
makeTemporalOperands(std::size_t k, double density, int timesteps,
                     double dense_fraction, std::uint64_t seed)
{
    Rng rng(seed);
    const TimeWord all_ones =
        static_cast<TimeWord>((TimeWord(1) << timesteps) - 1);
    TemporalOperands ops;
    ops.fa.mask = Bitmask(k);
    ops.t_masks.assign(static_cast<std::size_t>(timesteps), Bitmask(k));
    for (std::size_t i = 0; i < k; ++i) {
        if (!rng.bernoulli(density))
            continue;
        const TimeWord word =
            rng.bernoulli(dense_fraction)
                ? all_ones
                : static_cast<TimeWord>(
                      1 + rng.uniformInt(static_cast<int>(all_ones) - 1));
        ops.fa.mask.set(i);
        ops.fa.values.push_back(word);
        for (int t = 0; t < timesteps; ++t)
            if ((word >> t) & 1u)
                ops.t_masks[static_cast<std::size_t>(t)].set(i);
    }
    return ops;
}

// The sequential baseline the tentpole replaces: T independent
// row-mask scans against the same weight fiber (T word-ANDs per weight
// word). Arg pair: (k, timesteps).
void
BM_TemporalJoinSequential(benchmark::State& state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    const int timesteps = static_cast<int>(state.range(1));
    const auto ops = makeTemporalOperands(k, 0.25, timesteps, 0.2, 7);
    const auto fibers = makeFibers(k, 0.25, 0.03, 7);
    const WeightFiber& fb = fibers.second;
    const RankedBitmask rb(fb.mask);
    std::vector<std::int32_t> sums(
        static_cast<std::size_t>(timesteps), 0);
    for (auto _ : state) {
        for (int t = 0; t < timesteps; ++t) {
            std::int32_t acc = 0;
            forEachMatch(ops.t_masks[static_cast<std::size_t>(t)], rb,
                         [&](std::size_t, std::size_t b_off) {
                             acc += fb.values[b_off];
                         });
            sums[static_cast<std::size_t>(t)] = acc;
        }
        benchmark::DoNotOptimize(sums.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(k) * timesteps);
}
BENCHMARK(BM_TemporalJoinSequential)
    ->Args({2304, 4})
    ->Args({2304, 8})
    ->Args({2304, 16});

// The fused kernel: one word-AND per weight word for all T timesteps,
// matches fanned out through the packed temporal words.
void
BM_TemporalJoinFused(benchmark::State& state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    const int timesteps = static_cast<int>(state.range(1));
    const auto ops = makeTemporalOperands(k, 0.25, timesteps, 0.2, 7);
    const auto fibers = makeFibers(k, 0.25, 0.03, 7);
    const WeightFiber& fb = fibers.second;
    const RankedBitmask ra(ops.fa.mask), rb(fb.mask);
    std::vector<std::int32_t> sums(
        static_cast<std::size_t>(timesteps), 0);
    for (auto _ : state) {
        const FusedJoinStats s =
            fusedTemporalJoin(ops.fa, ra, fb, rb, timesteps,
                              /*collapse=*/false, sums.data());
        benchmark::DoNotOptimize(s.matches);
        benchmark::DoNotOptimize(sums.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(k) * timesteps);
}
BENCHMARK(BM_TemporalJoinFused)
    ->Args({2304, 4})
    ->Args({2304, 8})
    ->Args({2304, 16});

// The collapse fast path on a temporally dense operand (90% all-ones
// trains): pseudo-accumulate once per match, correct only zero bits.
void
BM_TemporalJoinCollapse(benchmark::State& state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    const int timesteps = static_cast<int>(state.range(1));
    const auto ops = makeTemporalOperands(k, 0.25, timesteps, 0.9, 7);
    const auto fibers = makeFibers(k, 0.25, 0.03, 7);
    const WeightFiber& fb = fibers.second;
    const RankedBitmask ra(ops.fa.mask), rb(fb.mask);
    std::vector<std::int32_t> sums(
        static_cast<std::size_t>(timesteps), 0);
    std::vector<std::int64_t> correction(
        static_cast<std::size_t>(timesteps), 0);
    for (auto _ : state) {
        const FusedJoinStats s =
            fusedTemporalJoin(ops.fa, ra, fb, rb, timesteps,
                              /*collapse=*/true, sums.data(),
                              correction.data());
        benchmark::DoNotOptimize(s.matches);
        benchmark::DoNotOptimize(sums.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(k) * timesteps);
}
BENCHMARK(BM_TemporalJoinCollapse)->Args({2304, 8})->Args({2304, 16});

void
BM_OutputCompressor(benchmark::State& state)
{
    Rng rng(3);
    std::vector<TimeWord> row(
        static_cast<std::size_t>(state.range(0)));
    for (auto& w : row)
        w = rng.bernoulli(0.2)
                ? static_cast<TimeWord>(1 + rng.uniformInt(15))
                : 0;
    const OutputCompressor comp(16);
    for (auto _ : state) {
        const CompressResult r = comp.compress(row);
        benchmark::DoNotOptimize(r.fiber.values);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_OutputCompressor)->Arg(512)->Arg(3072);

void
BM_PlifFire(benchmark::State& state)
{
    const Plif plif(LifParams{}, 4);
    const std::vector<std::int32_t> sums = {120, -5, 80, 33};
    for (auto _ : state) {
        const PlifResult r = plif.fire(sums);
        benchmark::DoNotOptimize(r.spikes);
    }
}
BENCHMARK(BM_PlifFire);

void
BM_BitmaskRank(benchmark::State& state)
{
    Rng rng(11);
    Bitmask mask(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < mask.size(); ++i)
        if (rng.bernoulli(0.3))
            mask.set(i);
    std::size_t pos = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mask.rank(pos));
        pos = (pos + 97) % mask.size();
    }
}
BENCHMARK(BM_BitmaskRank)->Arg(2304);

// O(1) compiled rank table vs the O(k/64) scan above.
void
BM_RankedBitmaskRank(benchmark::State& state)
{
    Rng rng(11);
    Bitmask mask(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < mask.size(); ++i)
        if (rng.bernoulli(0.3))
            mask.set(i);
    const RankedBitmask ranked(mask);
    std::size_t pos = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ranked.rank(pos));
        pos = (pos + 97) % mask.size();
    }
}
BENCHMARK(BM_RankedBitmaskRank)->Arg(2304);

void
BM_RankedPopcountRange(benchmark::State& state)
{
    Rng rng(13);
    Bitmask mask(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < mask.size(); ++i)
        if (rng.bernoulli(0.3))
            mask.set(i);
    const RankedBitmask ranked(mask);
    std::size_t pos = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ranked.popcountRange(pos, mask.size()));
        pos = (pos + 97) % mask.size();
    }
}
BENCHMARK(BM_RankedPopcountRange)->Arg(2304);

// Steady-state execute() over a compiled layer: the figure-harness hot
// loop. The first iterations warm the scratch buffers; afterwards the
// run is allocation-free (reported as the allocs_per_iter counter).
void
BM_LoasExecuteSteady(benchmark::State& state)
{
    LayerSpec spec = tables::alexnetL4();
    spec.m = 64;
    spec.name = "kbench";
    const LayerData layer = generateLayer(spec, 13);
    const auto instance = AcceleratorRegistry::instance().make("loas");
    const CompiledLayer compiled = instance->prepare(layer);
    instance->execute(compiled); // warm the scratch
    const std::uint64_t allocs_before = allochook::allocationCount();
    for (auto _ : state) {
        const RunResult r = instance->execute(compiled);
        benchmark::DoNotOptimize(r.total_cycles);
    }
    state.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allochook::allocationCount() -
                            allocs_before),
        benchmark::Counter::kAvgIterations);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(spec.m * spec.n));
}
BENCHMARK(BM_LoasExecuteSteady);

void
BM_CacheAccess(benchmark::State& state)
{
    MemorySystem mem(CacheConfig{}, DramConfig{});
    std::uint64_t addr = 0;
    for (auto _ : state) {
        mem.read(TensorCategory::Input, addr % (512 * 1024), 64);
        addr += 64;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess);

void
BM_ReferenceLayer(benchmark::State& state)
{
    LayerSpec spec = tables::vgg16L8();
    spec.m = 4; // keep the reference walk small
    const LayerData layer = generateLayer(spec, 13);
    for (auto _ : state) {
        const SpikeTensor c = referenceSnnLayer(
            layer.spikes, layer.weights, LifParams{});
        benchmark::DoNotOptimize(c.countSpikes());
    }
}
BENCHMARK(BM_ReferenceLayer);

} // namespace
