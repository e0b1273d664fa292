/** @file Tests for the cycle-level FTP-friendly inner-join unit. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bitutil.hh"
#include "common/rng.hh"
#include "core/inner_join.hh"
#include "core/kernel_dispatch.hh"
#include "tensor/compress.hh"

#include "match_walks.hh"

namespace loas {
namespace {

SpikeFiber
makeSpikeFiber(std::size_t k,
               const std::vector<std::pair<std::size_t, TimeWord>>& nz)
{
    SpikeFiber f;
    f.mask = Bitmask(k);
    for (const auto& [pos, w] : nz) {
        f.mask.set(pos);
        f.values.push_back(w);
    }
    return f;
}

WeightFiber
makeWeightFiber(std::size_t k,
                const std::vector<std::pair<std::size_t, std::int32_t>>&
                    nz)
{
    WeightFiber f;
    f.mask = Bitmask(k);
    for (const auto& [pos, v] : nz) {
        f.mask.set(pos);
        f.values.push_back(v);
    }
    return f;
}

TEST(InnerJoin, Fig10WalkThrough)
{
    // The fiber pair of Fig. 10: five positions; a2 matches with word
    // 1111 (prediction correct, b2 discarded from correction) and a4
    // with 1010 (prediction wrong at t0 and t2... bit order: spikes at
    // t1 and t3), so b4 is corrected into the accumulators of the
    // missing timesteps.
    const SpikeFiber fa =
        makeSpikeFiber(5, {{2, 0b1111}, {4, 0b1010}});
    const WeightFiber fb =
        makeWeightFiber(5, {{0, 10}, {2, 20}, {4, 30}});

    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);

    EXPECT_EQ(r.matches, 2u);
    EXPECT_EQ(r.corrections, 1u);
    // pseudo = 20 + 30; corrections remove 30 from t0 and t2.
    EXPECT_EQ(r.sums[0], 20);
    EXPECT_EQ(r.sums[1], 50);
    EXPECT_EQ(r.sums[2], 20);
    EXPECT_EQ(r.sums[3], 50);
}

TEST(InnerJoin, EmptyIntersection)
{
    const SpikeFiber fa = makeSpikeFiber(256, {{0, 0b0001}});
    const WeightFiber fb = makeWeightFiber(256, {{5, 9}});
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);
    EXPECT_EQ(r.matches, 0u);
    for (const auto s : r.sums)
        EXPECT_EQ(s, 0);
    // Still pays the chunk scans plus setup/drain.
    const InnerJoinConfig config;
    EXPECT_GE(r.cycles, 2u); // 256/128 chunks
    EXPECT_LE(r.cycles,
              config.setup_cycles + 2 + config.drain_cycles + 1);
}

TEST(InnerJoin, AllOnesNeedNoCorrection)
{
    // Dense spike words (neuron fires every timestep): the pseudo
    // accumulation is always right, as in the paper's dense argument.
    SpikeFiber fa;
    fa.mask = Bitmask(128);
    WeightFiber fb;
    fb.mask = Bitmask(128);
    for (std::size_t i = 0; i < 128; ++i) {
        fa.mask.set(i);
        fa.values.push_back(0b1111);
        fb.mask.set(i);
        fb.values.push_back(1);
    }
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);
    EXPECT_EQ(r.matches, 128u);
    EXPECT_EQ(r.corrections, 0u);
    EXPECT_EQ(r.ops.correction_ops, 4u); // only the final subtraction
    for (const auto s : r.sums)
        EXPECT_EQ(s, 128);
}

TEST(InnerJoin, CyclesLowerBoundedByChunksAndMatches)
{
    Rng rng(4);
    SpikeFiber fa;
    fa.mask = Bitmask(512);
    WeightFiber fb;
    fb.mask = Bitmask(512);
    for (std::size_t i = 0; i < 512; ++i) {
        if (rng.bernoulli(0.5)) {
            fa.mask.set(i);
            fa.values.push_back(
                static_cast<TimeWord>(1 + rng.uniformInt(15)));
        }
        if (rng.bernoulli(0.5)) {
            fb.mask.set(i);
            fb.values.push_back(1);
        }
    }
    const InnerJoinConfig config;
    const InnerJoinUnit unit(config, 4);
    const JoinResult r = unit.join(fa, fb);
    const std::uint64_t chunks = 512 / config.chunk_bits;
    EXPECT_GE(r.cycles, chunks);
    EXPECT_GE(r.cycles, r.matches);
    // And within a small envelope of the ideal pipeline.
    EXPECT_LE(r.cycles, config.setup_cycles + chunks + r.matches +
                            config.laggyLatency() +
                            config.drain_cycles + r.matches / 4 + 4);
}

TEST(InnerJoin, OpCountsConsistent)
{
    const SpikeFiber fa =
        makeSpikeFiber(128, {{1, 0b0101}, {2, 0b0010}, {100, 0b1000}});
    const WeightFiber fb =
        makeWeightFiber(128, {{1, 3}, {100, -5}, {101, 7}});
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    const JoinResult r = unit.join(fa, fb);
    EXPECT_EQ(r.matches, 2u);
    EXPECT_EQ(r.ops.acc_ops, 2u);          // one per match
    EXPECT_EQ(r.ops.fast_prefix_ops, 2u);  // one per match
    EXPECT_EQ(r.ops.fifo_ops, 8u);         // 2 push + 2 pop per match
    EXPECT_EQ(r.ops.mask_and_ops, 1u);     // one 128-bit chunk
    // a1 = 0101 corrects t1,t3; a100 = 1000 corrects t0,t1,t2; plus
    // final subtraction of 4.
    EXPECT_EQ(r.ops.correction_ops, 2u + 3u + 4u);
}

TEST(InnerJoin, FifoBackpressureSlowsDenseChunks)
{
    // A chunk with every position matched must stall once the depth-8
    // FIFO fills faster than the laggy path drains.
    SpikeFiber fa;
    fa.mask = Bitmask(128);
    WeightFiber fb;
    fb.mask = Bitmask(128);
    for (std::size_t i = 0; i < 128; ++i) {
        fa.mask.set(i);
        fa.values.push_back(0b0101);
        fb.mask.set(i);
        fb.values.push_back(2);
    }
    InnerJoinConfig deep;
    deep.fifo_depth = 1024;
    InnerJoinConfig shallow;
    shallow.fifo_depth = 2;
    const JoinResult fast = InnerJoinUnit(deep, 4).join(fa, fb);
    const JoinResult slow = InnerJoinUnit(shallow, 4).join(fa, fb);
    EXPECT_GE(slow.cycles, fast.cycles);
    EXPECT_EQ(slow.sums, fast.sums); // functionally identical
}

TEST(InnerJoin, RunsAddressMatchedFiberValues)
{
    // a5 and a64 are the 2nd and 3rd stored values: adjacent 4-bit
    // words, one byte at the value base.
    const SpikeFiber fa = makeSpikeFiber(
        128, {{0, 0b0001}, {5, 0b0011}, {64, 0b1000}});
    const WeightFiber fb = makeWeightFiber(128, {{5, 1}, {64, 1}});
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    JoinScratch scratch;
    const RankedBitmask ra(fa.mask), rb(fb.mask);
    const JoinResult& r = unit.join(fa, ra, fb, rb, 1000, scratch);
    ASSERT_EQ(r.runs.size(), 1u);
    EXPECT_EQ(r.runs[0], (SpikeRun{1000, 1, 1}));
}

TEST(InnerJoin, RunsSplitAcrossCacheLines)
{
    // Stored values 0, 1 and 300 match: the first two are adjacent,
    // the third sits 150 bytes on, past the 64-byte line of the run.
    SpikeFiber fa;
    fa.mask = Bitmask(512);
    const WeightFiber fb =
        makeWeightFiber(512, {{0, 1}, {1, 1}, {300, 1}});
    for (std::size_t i = 0; i <= 300; ++i) {
        fa.mask.set(i);
        fa.values.push_back(0b0001);
    }
    const JoinResult r = InnerJoinUnit(InnerJoinConfig{}, 4).join(fa, fb);
    ASSERT_EQ(r.runs.size(), 2u);
    EXPECT_EQ(r.runs[0], (SpikeRun{0, 1, 1}));
    EXPECT_EQ(r.runs[1], (SpikeRun{150, 1, 1}));
}

/**
 * Property sweep: the join's functional output equals the brute-force
 * per-timestep dot product for random fibers (the core correctness
 * claim of the pseudo-accumulator + correction scheme).
 */
class InnerJoinProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(InnerJoinProperty, MatchesBruteForce)
{
    const int seed = std::get<0>(GetParam());
    const int timesteps = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(seed) * 1000 + timesteps);
    const std::size_t k = 1 + rng.uniformInt(700);

    SpikeFiber fa;
    fa.mask = Bitmask(k);
    WeightFiber fb;
    fb.mask = Bitmask(k);
    std::vector<TimeWord> dense_a(k, 0);
    std::vector<std::int32_t> dense_b(k, 0);
    const TimeWord word_cap = (timesteps >= 32)
                                  ? ~TimeWord{0}
                                  : ((TimeWord{1} << timesteps) - 1);
    for (std::size_t i = 0; i < k; ++i) {
        if (rng.bernoulli(0.35)) {
            const TimeWord w = 1 + static_cast<TimeWord>(
                                       rng.uniformInt(word_cap));
            dense_a[i] = w;
            fa.mask.set(i);
            fa.values.push_back(w);
        }
        if (rng.bernoulli(0.3)) {
            const auto v = static_cast<std::int32_t>(
                               rng.uniformInt(255)) - 127;
            if (v != 0) {
                dense_b[i] = v;
                fb.mask.set(i);
                fb.values.push_back(v);
            }
        }
    }

    const InnerJoinUnit unit(InnerJoinConfig{}, timesteps);
    const JoinResult r = unit.join(fa, fb);

    for (int t = 0; t < timesteps; ++t) {
        std::int32_t expected = 0;
        for (std::size_t i = 0; i < k; ++i)
            if ((dense_a[i] >> t) & 1u)
                expected += dense_b[i];
        EXPECT_EQ(r.sums[static_cast<std::size_t>(t)], expected)
            << "t=" << t << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InnerJoinProperty,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(1, 2, 4, 8, 16)));

// ---------------------------------------------------------------------
// Oracle: the cycle-stepped join the one-pass kernel replaced, kept
// verbatim (every chunk ANDed in turn, a lazily popped FIFO), and the
// per-line coalescing loop that turned its matched offsets into cache
// reads. The kernel must reproduce both on every field.
// ---------------------------------------------------------------------

struct OracleJoin
{
    std::uint64_t cycles = 0;
    std::vector<std::int32_t> sums;
    std::uint64_t matches = 0;
    std::uint64_t corrections = 0;
    std::uint64_t spike_value_bytes = 0;
    std::vector<std::uint32_t> matched_offsets_a;
    OpCounts ops;
};

OracleJoin
oracleJoin(const InnerJoinConfig& config, int timesteps,
           const SpikeFiber& fiber_a, const RankedBitmask& rank_a,
           const WeightFiber& fiber_b, const RankedBitmask& rank_b)
{
    const std::size_t k = fiber_a.mask.size();
    const std::size_t chunk_bits = config.chunk_bits;
    const std::uint64_t laggy_latency = config.laggyLatency();
    const TimeWord all_ones =
        timesteps >= kMaxTimesteps
            ? ~TimeWord{0}
            : static_cast<TimeWord>((TimeWord{1} << timesteps) - 1);

    OracleJoin result;
    result.sums.assign(static_cast<std::size_t>(timesteps), 0);

    std::int64_t pseudo = 0;
    std::vector<std::int64_t> correction_buf(
        static_cast<std::size_t>(timesteps), 0);
    std::int64_t* const correction = correction_buf.data();

    // Pipeline timestamps (cycle numbers).
    std::uint64_t now = config.setup_cycles; // fast path frontier
    std::uint64_t prev_check = 0;   // completion of last check
    std::uint64_t last_event = now; // overall completion frontier

    // Completion cycles of in-flight FIFO entries (for the depth
    // bound), kept in a fixed-capacity ring.
    const std::size_t fifo_cap = config.fifo_depth + 1;
    std::vector<std::uint64_t> fifo(fifo_cap);
    std::size_t fifo_head = 0, fifo_tail = 0, fifo_count = 0;

    const std::size_t value_bytes =
        static_cast<std::size_t>(ceilDiv(timesteps, 8));

    for (std::size_t chunk_lo = 0; chunk_lo < k; chunk_lo += chunk_bits) {
        const std::size_t chunk_hi = std::min(chunk_lo + chunk_bits, k);

        // One cycle to AND the buffered chunk masks and priority-encode.
        const std::uint64_t and_done = now + 1;
        result.ops.mask_and_ops += 1;
        now = and_done;
        last_event = std::max(last_event, and_done);

        if (!anyMatch(fiber_a.mask, fiber_b.mask, chunk_lo, chunk_hi))
            continue;

        const std::uint64_t laggy_ready = and_done + laggy_latency;
        result.ops.laggy_prefix_ops += laggy_latency;

        forEachMatch(rank_a, rank_b, chunk_lo, chunk_hi,
                     [&](std::size_t, std::size_t a_off,
                         std::size_t b_off) {
            // Fast path: one offset per cycle, stalling on FIFO-full.
            std::uint64_t emit = now + 1;
            while (fifo_count >= config.fifo_depth) {
                emit = std::max(emit, fifo[fifo_head] + 1);
                fifo_head = (fifo_head + 1) % fifo_cap;
                --fifo_count;
            }
            now = emit;
            result.ops.fast_prefix_ops += 1;
            result.ops.fifo_ops += 2; // push into FIFO-mp and FIFO-B

            // Speculative accumulate of the matched weight.
            const std::int32_t weight = fiber_b.values[b_off];
            pseudo += weight;
            result.ops.acc_ops += 1;

            // Check path: drains after the laggy circuit is ready.
            const std::uint64_t check =
                std::max({prev_check + 1, laggy_ready, emit + 1});
            prev_check = check;
            fifo[fifo_tail] = check;
            fifo_tail = (fifo_tail + 1) % fifo_cap;
            ++fifo_count;
            result.ops.fifo_ops += 2; // pop both FIFOs

            const TimeWord spike_word = fiber_a.values[a_off];
            result.spike_value_bytes += value_bytes;
            result.matched_offsets_a.push_back(
                static_cast<std::uint32_t>(a_off));
            if (spike_word != all_ones) {
                // Mis-speculation: subtract the weight from every
                // timestep whose spike bit is zero.
                result.corrections += 1;
                for (int t = 0; t < timesteps; ++t) {
                    if (!((spike_word >> t) & 1u)) {
                        correction[static_cast<std::size_t>(t)] += weight;
                        result.ops.correction_ops += 1;
                    }
                }
            }
            result.matches += 1;
            last_event = std::max(last_event, check);
        });
    }

    // Final correction subtraction into each timestep's accumulator.
    for (int t = 0; t < timesteps; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        const std::int64_t sum = pseudo - correction[ts];
        result.sums[ts] = static_cast<std::int32_t>(sum);
        result.ops.correction_ops += 1;
    }

    result.cycles = last_event + config.drain_cycles;
    return result;
}

/** The readRun() calls the coalescing loop issued for `offs`. */
std::vector<SpikeRun>
oracleRuns(const std::vector<std::uint32_t>& offs, int timesteps,
           std::uint64_t line, std::uint64_t row_base)
{
    std::vector<SpikeRun> runs;
    const auto tbits = static_cast<std::uint64_t>(timesteps);
    std::uint64_t run_addr = 0; // merged walk, [addr, end)
    std::uint64_t run_end = 0;
    std::uint64_t run_payload = 0;
    for (std::size_t i = 0; i < offs.size();) {
        std::size_t j = i + 1;
        while (j < offs.size() && offs[j] == offs[j - 1] + 1)
            ++j;
        const std::uint64_t first_bit = offs[i] * tbits;
        const std::uint64_t span_bytes =
            ceilDiv<std::uint64_t>((j - i) * tbits, 8);
        const std::uint64_t addr = row_base + first_bit / 8;
        if (run_payload != 0 && addr / line <= (run_end - 1) / line) {
            run_end = std::max(run_end, addr + span_bytes);
            run_payload += span_bytes;
        } else {
            if (run_payload != 0)
                runs.push_back(
                    {run_addr, run_end - run_addr, run_payload});
            run_addr = addr;
            run_end = addr + span_bytes;
            run_payload = span_bytes;
        }
        i = j;
    }
    if (run_payload != 0)
        runs.push_back({run_addr, run_end - run_addr, run_payload});
    return runs;
}

/** Random fiber pair; `dt` is each timestep bit's firing odds. */
std::pair<SpikeFiber, WeightFiber>
randomFibers(Rng& rng, std::size_t k, double da, double db, double dt,
             int timesteps)
{
    SpikeFiber fa;
    fa.mask = Bitmask(k);
    WeightFiber fb;
    fb.mask = Bitmask(k);
    for (std::size_t i = 0; i < k; ++i) {
        if (rng.bernoulli(da)) {
            TimeWord w = 0;
            while (w == 0)
                for (int t = 0; t < timesteps; ++t)
                    if (rng.bernoulli(dt))
                        w |= TimeWord{1} << t;
            fa.mask.set(i);
            fa.values.push_back(w);
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
expectMatchesOracle(const InnerJoinConfig& config, int timesteps,
                    std::uint32_t line_bytes, std::uint64_t value_base,
                    const SpikeFiber& fa, const WeightFiber& fb,
                    JoinScratch& scratch)
{
    const RankedBitmask ra(fa.mask), rb(fb.mask);
    const OracleJoin want = oracleJoin(config, timesteps, fa, ra, fb, rb);
    const JoinResult& got =
        InnerJoinUnit(config, timesteps, line_bytes)
            .join(fa, ra, fb, rb, value_base, scratch);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.sums, want.sums);
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.corrections, want.corrections);
    EXPECT_EQ(got.spike_value_bytes, want.spike_value_bytes);
    EXPECT_EQ(got.ops.acc_ops, want.ops.acc_ops);
    EXPECT_EQ(got.ops.correction_ops, want.ops.correction_ops);
    EXPECT_EQ(got.ops.mac_ops, want.ops.mac_ops);
    EXPECT_EQ(got.ops.fast_prefix_ops, want.ops.fast_prefix_ops);
    EXPECT_EQ(got.ops.laggy_prefix_ops, want.ops.laggy_prefix_ops);
    EXPECT_EQ(got.ops.fifo_ops, want.ops.fifo_ops);
    EXPECT_EQ(got.ops.lif_ops, want.ops.lif_ops);
    EXPECT_EQ(got.ops.mask_and_ops, want.ops.mask_and_ops);
    EXPECT_EQ(got.ops.merge_ops, want.ops.merge_ops);
    EXPECT_EQ(got.ops.encode_ops, want.ops.encode_ops);
    EXPECT_EQ(got.runs, oracleRuns(want.matched_offsets_a, timesteps,
                                   line_bytes, value_base));
}

/** 600 random joins: configs, densities, T, k % 64 != 0, lines. */
void
expectRandomJoinsMatchOracle()
{
    const std::size_t depths[] = {1, 2, 3, 8, 13};
    const std::size_t chunks[] = {1, 7, 64, 100, 128, 256};
    const double densities[] = {0.02, 0.2, 0.6, 0.95};
    const double temporal[] = {0.1, 0.5, 0.9, 1.0};
    const std::uint32_t lines[] = {32, 64, 128};
    Rng rng(2024);
    JoinScratch scratch; // reused: every join must start clean
    for (int trial = 0; trial < 600; ++trial) {
        InnerJoinConfig config;
        config.fifo_depth = depths[rng.uniformInt(5)];
        config.chunk_bits = chunks[rng.uniformInt(6)];
        const int timesteps = 1 + static_cast<int>(rng.uniformInt(32));
        std::size_t k = 1 + rng.uniformInt(1200);
        if (k % 64 == 0)
            ++k;
        const double da = densities[rng.uniformInt(4)];
        const double db = densities[rng.uniformInt(4)];
        const double dt = temporal[rng.uniformInt(4)];
        const std::uint32_t line = lines[rng.uniformInt(3)];
        const std::uint64_t base = rng.uniformInt(1u << 20);
        const auto [fa, fb] = randomFibers(rng, k, da, db, dt, timesteps);
        SCOPED_TRACE("trial " + std::to_string(trial) + ": depth=" +
                     std::to_string(config.fifo_depth) + " chunk=" +
                     std::to_string(config.chunk_bits) +
                     " T=" + std::to_string(timesteps) +
                     " k=" + std::to_string(k));
        expectMatchesOracle(config, timesteps, line, base, fa, fb,
                            scratch);
    }
}

TEST(InnerJoinOracle, RandomConfigsDensitiesAndTimesteps)
{
    // Both builds of the join: portable (scalar ISA) and POPCNT.
    const kernels::Isa saved = kernels::resolvedIsa();
    for (const auto isa :
         {kernels::Isa::Scalar, kernels::bestSupportedIsa()}) {
        SCOPED_TRACE(kernels::isaName(isa));
        kernels::setIsa(isa);
        expectRandomJoinsMatchOracle();
    }
    kernels::setIsa(saved);
}

TEST(InnerJoinOracle, WordAlignedShapes)
{
    // k on and off word boundaries; chunk widths below, across and
    // off a multiple of 64.
    const std::size_t ks[] = {1, 63, 64, 65, 130, 512, 2304};
    const std::size_t chunks[] = {32, 100, 128};
    const double densities[][2] = {{0.25, 0.03}, {0.9, 0.9}, {0.05, 0.5}};
    JoinScratch scratch;
    for (const auto k : ks) {
        for (const auto chunk : chunks) {
            for (const auto& d : densities) {
                InnerJoinConfig config;
                config.chunk_bits = chunk;
                Rng rng(k * 31 + chunk);
                const auto [fa, fb] = randomFibers(rng, k, d[0], d[1],
                                                   0.5, 4);
                SCOPED_TRACE("k=" + std::to_string(k) + " chunk=" +
                             std::to_string(chunk));
                expectMatchesOracle(config, 4, 64, 0x4000'0000, fa, fb,
                                    scratch);
            }
        }
    }
}

TEST(InnerJoinOracle, DeepTimesteps)
{
    // T = kMaxTimesteps: the all-ones word has every bit set.
    Rng rng(99);
    JoinScratch scratch;
    const auto [fa, fb] =
        randomFibers(rng, 777, 0.5, 0.4, 0.9, kMaxTimesteps);
    expectMatchesOracle(InnerJoinConfig{}, kMaxTimesteps, 64, 0, fa, fb,
                        scratch);
}

TEST(InnerJoinOracle, EmptyAndSilentFibers)
{
    JoinScratch scratch;
    for (const std::size_t k : {0, 1, 200}) {
        Rng rng(k);
        const auto [fa, fb] = randomFibers(rng, k, 0.0, 0.5, 0.5, 4);
        expectMatchesOracle(InnerJoinConfig{}, 4, 64, 0, fa, fb, scratch);
    }
}

TEST(InnerJoinOracle, ScratchReuseIsStateless)
{
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    Rng rng(7);
    const auto [fa1, fb1] = randomFibers(rng, 520, 0.4, 0.2, 0.5, 4);
    const auto [fa2, fb2] = randomFibers(rng, 520, 0.1, 0.8, 0.5, 4);
    const RankedBitmask ra1(fa1.mask), rb1(fb1.mask);
    const RankedBitmask ra2(fa2.mask), rb2(fb2.mask);

    // One scratch reused across different fiber pairs must reproduce
    // the fresh-scratch (convenience API) results exactly.
    JoinScratch scratch;
    const JoinResult first = unit.join(fa1, ra1, fb1, rb1, 0, scratch);
    const JoinResult& second = unit.join(fa2, ra2, fb2, rb2, 0, scratch);
    const auto expectSame = [](const JoinResult& got,
                               const JoinResult& want) {
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.sums, want.sums);
        EXPECT_EQ(got.runs, want.runs);
        EXPECT_EQ(got.ops.total(), want.ops.total());
    };
    expectSame(first, unit.join(fa1, fb1));
    expectSame(second, unit.join(fa2, fb2));
}

} // namespace
} // namespace loas
