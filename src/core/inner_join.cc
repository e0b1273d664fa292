#include "core/inner_join.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/kernel_dispatch.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#define LOAS_POPCNT_TARGET __attribute__((target("popcnt")))
#else
#define LOAS_POPCNT_TARGET
#endif

namespace loas {

InnerJoinUnit::InnerJoinUnit(const InnerJoinConfig& config, int timesteps,
                             std::uint32_t line_bytes)
    : config_(config), timesteps_(timesteps),
      line_shift_(floorLog2(line_bytes)),
      popcnt_(kernels::resolvedIsa() != kernels::Isa::Scalar)
{
    if (timesteps < 1 || timesteps > kMaxTimesteps)
        fatal("InnerJoinUnit: timesteps %d unsupported", timesteps);
    if (config.chunk_bits == 0 || config.fifo_depth == 0 ||
        config.laggy_adders < 1)
        fatal("InnerJoinUnit: chunk_bits, fifo_depth and laggy_adders "
              "must be positive");
    if (!isPow2(line_bytes))
        fatal("InnerJoinUnit: cache line size %u is not a power of two",
              line_bytes);
}

[[gnu::always_inline]] inline const JoinResult&
InnerJoinUnit::walk(const SpikeFiber& fiber_a,
                    const RankedBitmask& rank_a,
                    const WeightFiber& fiber_b,
                    const RankedBitmask& rank_b,
                    std::uint64_t value_base,
                    JoinScratch& scratch) const
{
    const std::size_t chunk_bits = config_.chunk_bits;
    const std::size_t depth = config_.fifo_depth;
    const std::uint64_t laggy_latency = config_.laggyLatency();
    const auto tbits = static_cast<std::uint64_t>(timesteps_);
    const TimeWord all_ones =
        timesteps_ >= kMaxTimesteps
            ? ~TimeWord{0}
            : static_cast<TimeWord>((TimeWord{1} << timesteps_) - 1);

    JoinResult& result = scratch.result;
    result.runs.clear();
    std::int64_t pseudo = 0;
    scratch.correction.assign(static_cast<std::size_t>(timesteps_), 0);
    std::int64_t* const correction = scratch.correction.data();
    // Check times of the last `depth` matches. A zero slot never
    // delays an emit, which covers the first `depth` matches.
    scratch.fifo.assign(depth, 0);
    std::uint64_t* const fifo = scratch.fifo.data();
    std::size_t fifo_slot = 0;

    // Pipeline timestamps (cycle numbers).
    std::uint64_t now = config_.setup_cycles; // fast path frontier
    std::uint64_t prev_check = 0;   // completion of last check
    std::uint64_t laggy_ready = 0;  // laggy offsets of current chunk
    std::size_t next_chunk = 0;     // first chunk not yet ANDed
    std::size_t chunk_hi = 0;       // end of the current chunk
    std::uint64_t matched_chunks = 0;
    std::uint64_t matches = 0;
    std::uint64_t corrections = 0;
    std::uint64_t zero_bits = 0;

    // Coalescing state: the span of consecutive matched offsets being
    // grown, and the line-merged run it will join.
    std::uint64_t span_first = 0;
    std::uint64_t span_len = 0;
    std::uint64_t run_addr = 0; // [run_addr, run_end)
    std::uint64_t run_end = 0;
    std::uint64_t run_payload = 0;
    const auto closeSpan = [&] {
        const std::uint64_t addr = value_base + ((span_first * tbits) >> 3);
        const std::uint64_t bytes = (span_len * tbits + 7) >> 3;
        if (run_payload != 0 &&
            (addr >> line_shift_) <= ((run_end - 1) >> line_shift_)) {
            run_end = std::max(run_end, addr + bytes);
            run_payload += bytes;
            return;
        }
        if (run_payload != 0)
            result.runs.push_back(
                {run_addr, run_end - run_addr, run_payload});
        run_addr = addr;
        run_end = addr + bytes;
        run_payload = bytes;
    };

    forEachMatch(rank_a, rank_b, [&](std::size_t pos, std::size_t a_off,
                                     std::size_t b_off) {
        if (pos >= chunk_hi) {
            // AND/encode takes one cycle per chunk, so the chunks
            // skipped since the last matched one advance the frontier
            // by their count. The laggy circuit is a deeply pipelined
            // serial prefix chain: this chunk's spike offsets emerge
            // laggyLatency() cycles after its AND.
            const std::size_t chunk = pos / chunk_bits;
            now += chunk + 1 - next_chunk;
            next_chunk = chunk + 1;
            chunk_hi = next_chunk * chunk_bits;
            laggy_ready = now + laggy_latency;
            ++matched_chunks;
        }

        // Fast path: one offset per cycle, stalling while the FIFO is
        // full, i.e. until match i - depth has been checked.
        const std::uint64_t emit = std::max(now, fifo[fifo_slot]) + 1;
        now = emit;
        // Check path: drains after the laggy circuit is ready.
        const std::uint64_t check =
            std::max({prev_check + 1, laggy_ready, emit + 1});
        prev_check = check;
        fifo[fifo_slot] = check;
        if (++fifo_slot == depth)
            fifo_slot = 0;

        // Speculative accumulate of the matched weight; a spike word
        // that is not all ones corrects every timestep whose bit is
        // zero (a branch-free lane select).
        const std::int32_t weight = fiber_b.values[b_off];
        pseudo += weight;
        const TimeWord spike_word = fiber_a.values[a_off];
        const TimeWord zeros = ~spike_word & all_ones;
        corrections += spike_word != all_ones;
        zero_bits += static_cast<std::uint64_t>(popcount64(zeros));
        for (int t = 0; t < timesteps_; ++t)
            correction[t] +=
                weight & -static_cast<std::int64_t>((zeros >> t) & 1u);
        ++matches;

        if (span_len != 0 && a_off == span_first + span_len) {
            ++span_len;
        } else {
            if (span_len != 0)
                closeSpan();
            span_first = a_off;
            span_len = 1;
        }
    });
    if (span_len != 0) {
        closeSpan();
        result.runs.push_back({run_addr, run_end - run_addr, run_payload});
    }
    // The trailing chunks without a match still take their AND cycle.
    const std::size_t chunks = ceilDiv(fiber_a.mask.size(), chunk_bits);
    now += chunks - next_chunk;

    // Final correction subtraction into each timestep's accumulator.
    result.sums.resize(static_cast<std::size_t>(timesteps_));
    for (int t = 0; t < timesteps_; ++t)
        result.sums[static_cast<std::size_t>(t)] =
            static_cast<std::int32_t>(pseudo - correction[t]);

    result.matches = matches;
    result.corrections = corrections;
    result.spike_value_bytes = matches * ceilDiv<std::uint64_t>(tbits, 8);
    result.ops = OpCounts{};
    result.ops.mask_and_ops = chunks;
    result.ops.laggy_prefix_ops = laggy_latency * matched_chunks;
    result.ops.fast_prefix_ops = matches;
    result.ops.fifo_ops = 4 * matches; // push + pop of FIFO-mp and -B
    result.ops.acc_ops = matches;
    result.ops.correction_ops =
        zero_bits + static_cast<std::uint64_t>(timesteps_);
    // Checks complete in order, so the pipeline's last event is the
    // later of the final AND and the last check.
    result.cycles = std::max(now, prev_check) + config_.drain_cycles;
    return result;
}

LOAS_POPCNT_TARGET const JoinResult&
InnerJoinUnit::walkPopcnt(const SpikeFiber& fiber_a,
                          const RankedBitmask& rank_a,
                          const WeightFiber& fiber_b,
                          const RankedBitmask& rank_b,
                          std::uint64_t value_base,
                          JoinScratch& scratch) const
{
    return walk(fiber_a, rank_a, fiber_b, rank_b, value_base, scratch);
}

const JoinResult&
InnerJoinUnit::join(const SpikeFiber& fiber_a,
                    const RankedBitmask& rank_a,
                    const WeightFiber& fiber_b,
                    const RankedBitmask& rank_b,
                    std::uint64_t value_base,
                    JoinScratch& scratch) const
{
    if (fiber_a.mask.size() != fiber_b.mask.size())
        panic("inner join over mismatched fiber lengths %zu vs %zu",
              fiber_a.mask.size(), fiber_b.mask.size());
    return popcnt_ ? walkPopcnt(fiber_a, rank_a, fiber_b, rank_b,
                                value_base, scratch)
                   : walk(fiber_a, rank_a, fiber_b, rank_b, value_base,
                          scratch);
}

JoinResult
InnerJoinUnit::join(const SpikeFiber& fiber_a,
                    const WeightFiber& fiber_b) const
{
    const RankedBitmask rank_a(fiber_a.mask);
    const RankedBitmask rank_b(fiber_b.mask);
    JoinScratch scratch;
    return join(fiber_a, rank_a, fiber_b, rank_b, 0, scratch);
}

} // namespace loas
