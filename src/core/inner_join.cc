#include "core/inner_join.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/kernel_dispatch.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LOAS_POPCNT_TARGET __attribute__((target("popcnt")))
#define LOAS_WAVE_JOIN 1
#define LOAS_WAVE_TARGET __attribute__((target("avx512f,avx512vpopcntdq")))
#else
#define LOAS_POPCNT_TARGET
#define LOAS_WAVE_JOIN 0
#endif

namespace loas {

namespace {

/** A join's totals, from which finish() derives its result fields. */
struct JoinTotals
{
    std::uint64_t now;        // fast-path frontier after the last match
    std::uint64_t prev_check; // completion of the last check
    std::uint64_t next_chunk; // first chunk not yet ANDed
    std::uint64_t matched_chunks;
    std::uint64_t matches;
    std::uint64_t corrections;
    std::uint64_t zero_bits; // zero timestep bits over all matches
};

/**
 * Fill every field of `result` but sums and runs, for a join over
 * `chunks` chunks whose laggy latency is `laggy_latency`.
 */
inline void
finish(const InnerJoinConfig& config, int timesteps, std::uint64_t chunks,
       std::uint64_t laggy_latency, const JoinTotals& t, JoinResult& result)
{
    const auto tbits = static_cast<std::uint64_t>(timesteps);
    // The trailing chunks without a match still take their AND cycle.
    const std::uint64_t now = t.now + (chunks - t.next_chunk);
    result.matches = t.matches;
    result.corrections = t.corrections;
    result.spike_value_bytes = t.matches * ceilDiv<std::uint64_t>(tbits, 8);
    result.ops = OpCounts{};
    result.ops.mask_and_ops = chunks;
    result.ops.laggy_prefix_ops = laggy_latency * t.matched_chunks;
    result.ops.fast_prefix_ops = t.matches;
    result.ops.fifo_ops = 4 * t.matches; // push + pop of FIFO-mp and -B
    result.ops.acc_ops = t.matches;
    result.ops.correction_ops = t.zero_bits + tbits;
    // Checks complete in order, so the pipeline's last event is the
    // later of the final AND and the last check.
    result.cycles = std::max(now, t.prev_check) + config.drain_cycles;
}

} // namespace

InnerJoinUnit::InnerJoinUnit(const InnerJoinConfig& config, int timesteps,
                             std::uint32_t line_bytes)
    : config_(config), timesteps_(timesteps),
      line_shift_(floorLog2(line_bytes)),
      popcnt_(kernels::resolvedIsa() != kernels::Isa::Scalar),
      wave_(LOAS_WAVE_JOIN &&
            kernels::resolvedIsa() == kernels::Isa::Avx512 &&
            timesteps <= 16 && config.fifo_depth <= 16)
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

    // Final correction subtraction into each timestep's accumulator.
    result.sums.resize(static_cast<std::size_t>(timesteps_));
    for (int t = 0; t < timesteps_; ++t)
        result.sums[static_cast<std::size_t>(t)] =
            static_cast<std::int32_t>(pseudo - correction[t]);
    const JoinTotals totals{
        now,
        prev_check,
        next_chunk,
        matched_chunks,
        matches,
        corrections,
        zero_bits,
    };
    finish(config_, timesteps_, ceilDiv(fiber_a.mask.size(), chunk_bits),
           laggy_latency, totals, result);
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

// ------------------------------------------------------------ wave join

namespace {

constexpr std::size_t kLanes = InnerJoinUnit::kWaveLanes;

/**
 * First 64-byte-aligned element of `buf`, after making room for `n`
 * elements there. Stable while `buf` is not reallocated, so joinWave()
 * finds the tile loadTile() wrote.
 */
std::uint32_t*
alignedRoom(std::vector<std::uint32_t>& buf, std::size_t n)
{
    constexpr std::size_t slack = 64 / sizeof(std::uint32_t);
    if (buf.size() < n + slack)
        buf.resize(n + slack);
    const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    return buf.data() + ((64 - addr % 64) % 64) / sizeof(std::uint32_t);
}

#if LOAS_WAVE_JOIN

// gcc 12 expands the unmasked max/shift intrinsics through
// _mm512_undefined_epi32() and then flags that operand as
// (maybe-)uninitialized: a false positive, and the CI build is -Werror.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/** No span open in a lane (a span end is at most the fiber length). */
constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

/** What one wave kernel call reads, and where it writes its runs. */
struct WaveJob
{
    const std::uint64_t* col_words; // the weight fiber's mask
    const std::uint32_t* col_ranks; // its prefix table
    const std::int32_t* weights;    // its values
    const std::uint64_t* any;       // the tile's lane-OR mask words
    std::size_t words;              // 64-bit mask words per fiber
    const std::uint32_t* masks;     // the tile, as in WaveScratch
    const std::uint32_t* ranks;
    const std::uint32_t* values;
    const std::uint32_t* bases;
    std::size_t chunk_bits;
    std::uint32_t laggy_latency;
    std::uint32_t setup_cycles;
    std::uint32_t timesteps;
    std::uint32_t all_ones;
    std::uint32_t fifo_depth;
    int line_shift;
    SpikeRun* runs;         // lane l's closed runs start at
    std::size_t run_stride; // runs + l * run_stride
};

/** Every lane's state after the last step, for the scalar epilogue. */
struct WaveLanes
{
    alignas(64) std::uint32_t now[kLanes];
    alignas(64) std::uint32_t prev_check[kLanes];
    alignas(64) std::uint32_t next_chunk[kLanes];
    alignas(64) std::uint32_t matched_chunks[kLanes];
    alignas(64) std::uint32_t matches[kLanes];
    alignas(64) std::uint32_t corrections[kLanes];
    alignas(64) std::uint32_t one_bits[kLanes];
    alignas(64) std::int32_t sums[16][kLanes];
    std::uint32_t runs[kLanes]; // runs written per lane
};

/** Every lane's line-merged run being grown, as walk() holds one. */
struct LaneRuns
{
    __m512i addr;
    __m512i end;
    __m512i payload;
    std::uint32_t count[kLanes]; // runs written per lane
};

/** Write the open run of each lane in `flush` to its run array. */
[[gnu::always_inline]] LOAS_WAVE_TARGET inline void
writeRuns(unsigned flush, const WaveJob& job, LaneRuns& runs)
{
    alignas(64) std::uint32_t addr[kLanes];
    alignas(64) std::uint32_t end[kLanes];
    alignas(64) std::uint32_t payload[kLanes];
    _mm512_store_si512(addr, runs.addr);
    _mm512_store_si512(end, runs.end);
    _mm512_store_si512(payload, runs.payload);
    for (; flush != 0; flush &= flush - 1) {
        const auto l = static_cast<std::size_t>(lowestSetBit(flush));
        SpikeRun& run = job.runs[l * job.run_stride + runs.count[l]++];
        run = {addr[l], end[l] - std::uint64_t{addr[l]}, payload[l]};
    }
}

/**
 * walk()'s closeSpan for the lanes in `closing`: each closes its span
 * [first, end) (value offsets) into its run, which it either extends
 * or writes out and replaces.
 */
[[gnu::always_inline]] LOAS_WAVE_TARGET inline void
closeSpans(__mmask16 closing, __m512i first, __m512i end, __m512i base,
           __m512i tbits, __m128i line_shift, const WaveJob& job,
           LaneRuns& runs)
{
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i seven = _mm512_set1_epi32(7);
    const __m512i first_bits = _mm512_mullo_epi32(first, tbits);
    const __m512i span_bits =
        _mm512_mullo_epi32(_mm512_sub_epi32(end, first), tbits);
    const __m512i addr =
        _mm512_add_epi32(base, _mm512_srli_epi32(first_bits, 3));
    const __m512i bytes =
        _mm512_srli_epi32(_mm512_add_epi32(span_bits, seven), 3);
    const __m512i addr_end = _mm512_add_epi32(addr, bytes);
    const __m512i last_byte = _mm512_sub_epi32(runs.end, one);
    const __m512i addr_line = _mm512_srl_epi32(addr, line_shift);
    const __m512i last_line = _mm512_srl_epi32(last_byte, line_shift);
    const __mmask16 open =
        _mm512_mask_test_epi32_mask(closing, runs.payload, runs.payload);
    const __mmask16 merge =
        _mm512_mask_cmple_epu32_mask(open, addr_line, last_line);
    runs.end = _mm512_mask_max_epu32(runs.end, merge, runs.end, addr_end);
    runs.payload =
        _mm512_mask_add_epi32(runs.payload, merge, runs.payload, bytes);
    const auto fresh = static_cast<__mmask16>(closing & ~merge);
    if (const auto flush = static_cast<unsigned>(fresh & open))
        writeRuns(flush, job, runs);
    runs.addr = _mm512_mask_mov_epi32(runs.addr, fresh, addr);
    runs.end = _mm512_mask_mov_epi32(runs.end, fresh, addr_end);
    runs.payload = _mm512_mask_mov_epi32(runs.payload, fresh, bytes);
}

/** `value` in every 32-bit lane. */
[[gnu::always_inline]] LOAS_WAVE_TARGET inline __m512i
splat(std::uint32_t value)
{
    return _mm512_set1_epi32(static_cast<int>(value));
}

/**
 * The wave kernel: one step per column position that some lane
 * matches, every lane's per-match update of walk() under that lane's
 * match bit. The FIFO is a shift chain of `fifo_depth` vectors whose
 * entry 0 holds the check time of match i - depth; there is one sum
 * vector per timestep. Both are at most 16 (waveFits()).
 */
LOAS_WAVE_TARGET void
waveKernel(const WaveJob& job, WaveLanes& out)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = splat(1);
    const __m512i no_span = splat(kNoSpan);
    const __m512i lag = splat(job.laggy_latency);
    const __m512i all_ones = splat(job.all_ones);
    const __m512i tbits = splat(job.timesteps);
    const __m128i line_shift = _mm_cvtsi32_si128(job.line_shift);
    const __m512i base = _mm512_load_si512(job.bases);
    const auto depth = static_cast<int>(job.fifo_depth);
    const auto timesteps = static_cast<int>(job.timesteps);

    __m512i now = splat(job.setup_cycles);
    __m512i prev_check = zero;
    __m512i laggy_ready = zero;
    __m512i next_chunk = zero;
    __m512i chunks_hit = zero; // matched chunks
    __m512i fifo[16];
    __m512i sums[16];
    for (int i = 0; i < 16; ++i)
        fifo[i] = sums[i] = zero;
    __m512i matches = zero;
    __m512i corrections = zero;
    __m512i one_bits = zero;
    __m512i span_first = zero;
    __m512i span_end = no_span;
    // The loop makes no calls: the runs it writes go to per-lane
    // arrays the caller sized.
    LaneRuns runs{zero, zero, zero, {}};

    std::size_t chunk_end = job.chunk_bits; // end of the step's chunk
    std::uint32_t chunk = 0;                // its index
    __m512i chunk_next = one;               // chunk + 1, broadcast
    for (std::size_t w = 0; w < job.words; ++w) {
        const std::uint64_t col = job.col_words[w];
        const std::uint32_t col_rank = job.col_ranks[w];
        for (std::uint64_t x = col & job.any[w]; x != 0; x &= x - 1) {
            const int bit = lowestSetBit(x);
            const std::size_t pos = w * 64 + static_cast<std::size_t>(bit);
            const std::uint64_t col_below = col & lowMask64(bit);
            const auto b_off = col_rank + popcount64(col_below);
            const __m512i weight =
                splat(static_cast<std::uint32_t>(job.weights[b_off]));
            if (pos >= chunk_end) {
                do {
                    chunk_end += job.chunk_bits;
                    ++chunk;
                } while (pos >= chunk_end);
                chunk_next = splat(chunk + 1);
            }
            const std::uint32_t pos_bit = 1u << (pos % 32);
            const std::size_t row = pos / 32 * kLanes;
            const __m512i mask_word = _mm512_load_si512(job.masks + row);
            const __mmask16 m =
                _mm512_test_epi32_mask(mask_word, splat(pos_bit));
            const __m512i below =
                _mm512_and_si512(mask_word, splat(pos_bit - 1));
            const __m512i rank = _mm512_load_si512(job.ranks + row);
            const __m512i a_off =
                _mm512_add_epi32(rank, _mm512_popcnt_epi32(below));
            const __m512i spike =
                _mm512_load_si512(job.values + pos * kLanes);

            // A lane's first match in a chunk advances its AND/encode
            // frontier over the chunks since its last matched one.
            const __mmask16 advance =
                _mm512_mask_cmpneq_epu32_mask(m, next_chunk, chunk_next);
            const __m512i gap = _mm512_sub_epi32(chunk_next, next_chunk);
            now = _mm512_mask_add_epi32(now, advance, now, gap);
            next_chunk =
                _mm512_mask_mov_epi32(next_chunk, advance, chunk_next);
            laggy_ready =
                _mm512_mask_add_epi32(laggy_ready, advance, now, lag);
            chunks_hit =
                _mm512_mask_add_epi32(chunks_hit, advance, chunks_hit, one);

            // Fast path, stalling on the check of match i - depth, then
            // the check path; the FIFO shifts in this match's check.
            const __m512i emit =
                _mm512_add_epi32(_mm512_max_epu32(now, fifo[0]), one);
            const __m512i next_check = _mm512_add_epi32(prev_check, one);
            const __m512i ready = _mm512_max_epu32(next_check, laggy_ready);
            const __m512i check =
                _mm512_max_epu32(ready, _mm512_add_epi32(emit, one));
            now = _mm512_mask_mov_epi32(now, m, emit);
            prev_check = _mm512_mask_mov_epi32(prev_check, m, check);
            for (int d = 0; d + 1 < depth; ++d)
                fifo[d] = _mm512_mask_mov_epi32(fifo[d], m, fifo[d + 1]);
            fifo[depth - 1] =
                _mm512_mask_mov_epi32(fifo[depth - 1], m, check);

            // pseudo - correction[t] is the weight summed over the
            // matches whose timestep bit t is set; 32-bit lanes wrap
            // exactly as walk()'s final int32 cast does.
            for (int t = 0; t < timesteps; ++t) {
                const __mmask16 fired =
                    _mm512_mask_test_epi32_mask(m, spike, splat(1u << t));
                sums[t] =
                    _mm512_mask_add_epi32(sums[t], fired, sums[t], weight);
            }
            const __mmask16 wrong =
                _mm512_mask_cmpneq_epu32_mask(m, spike, all_ones);
            corrections =
                _mm512_mask_add_epi32(corrections, wrong, corrections, one);
            const __m512i spikes =
                _mm512_popcnt_epi32(_mm512_and_si512(spike, all_ones));
            one_bits = _mm512_mask_add_epi32(one_bits, m, one_bits, spikes);
            matches = _mm512_mask_add_epi32(matches, m, matches, one);

            // Span/run coalescer: a match next to its lane's span grows
            // it; any other closes the span into the lane's run.
            const __mmask16 adjacent =
                _mm512_mask_cmpeq_epu32_mask(m, a_off, span_end);
            const auto starts = static_cast<__mmask16>(m & ~adjacent);
            const __mmask16 closing =
                _mm512_mask_cmpneq_epu32_mask(starts, span_end, no_span);
            if (closing != 0)
                closeSpans(closing, span_first, span_end, base, tbits,
                           line_shift, job, runs);
            span_first = _mm512_mask_mov_epi32(span_first, starts, a_off);
            span_end = _mm512_mask_add_epi32(span_end, m, a_off, one);
        }
    }

    _mm512_store_si512(out.now, now);
    _mm512_store_si512(out.prev_check, prev_check);
    _mm512_store_si512(out.next_chunk, next_chunk);
    _mm512_store_si512(out.matched_chunks, chunks_hit);
    _mm512_store_si512(out.matches, matches);
    _mm512_store_si512(out.corrections, corrections);
    _mm512_store_si512(out.one_bits, one_bits);
    for (int t = 0; t < timesteps; ++t)
        _mm512_store_si512(out.sums[t], sums[t]);
    // After the last match walk() closes its open span and writes the
    // run that holds it.
    const __mmask16 open_spans =
        _mm512_cmpneq_epu32_mask(span_end, no_span);
    closeSpans(open_spans, span_first, span_end, base, tbits, line_shift,
               job, runs);
    const __mmask16 open_runs =
        _mm512_test_epi32_mask(runs.payload, runs.payload);
    writeRuns(open_runs, job, runs);
    std::copy(runs.count, runs.count + kLanes, out.runs);
}

#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // LOAS_WAVE_JOIN

} // namespace

bool
InnerJoinUnit::waveFits(std::size_t lanes, std::size_t positions) const
{
    if (!wave_ || lanes == 0 || lanes > kWaveLanes)
        return false;
    // A lane's timestamps stay below setup + chunks * (laggy + 1) +
    // 2 * matches: a chunk advance moves them by the chunk gap plus the
    // laggy latency, a match by at most 2. Bound that, with room.
    const std::uint64_t laggy = config_.laggyLatency();
    if (positions >= (1u << 26) || laggy >= (1u << 26) ||
        config_.setup_cycles >= (1u << 30) ||
        config_.drain_cycles >= (1u << 30))
        return false;
    const std::uint64_t chunks =
        ceilDiv<std::uint64_t>(positions, config_.chunk_bits);
    return config_.setup_cycles + config_.drain_cycles +
               chunks * (laggy + 2) + 2 * positions <
           (std::uint64_t{1} << 31);
}

bool
InnerJoinUnit::loadTile(const SpikeFiber* fibers,
                        const std::uint64_t* value_bases, std::size_t lanes,
                        WaveScratch& scratch) const
{
    const std::size_t positions = fibers[0].mask.size();
    const auto tbits = static_cast<std::uint64_t>(timesteps_);
    for (std::size_t l = 0; l < lanes; ++l) {
        if (fibers[l].mask.size() != positions)
            panic("wave tile over mismatched fiber lengths %zu vs %zu",
                  fibers[l].mask.size(), positions);
        const std::uint64_t bytes =
            ceilDiv<std::uint64_t>(fibers[l].nnz() * tbits, 8);
        if (value_bases[l] + bytes > ~std::uint32_t{0})
            return false;
    }

    // Lane-major transpose: entry [i][l] of each table belongs to lane
    // l. Lanes past `lanes` keep all-zero masks and never match.
    const std::size_t words32 = ceilDiv<std::size_t>(positions, 32);
    const std::size_t words64 = ceilDiv<std::size_t>(positions, 64);
    const std::size_t table = words32 * kLanes;
    std::uint32_t* const masks = alignedRoom(scratch.masks, table);
    std::uint32_t* const ranks = alignedRoom(scratch.ranks, table);
    std::uint32_t* const values =
        alignedRoom(scratch.values, positions * kLanes);
    std::uint32_t* const bases = alignedRoom(scratch.bases, kLanes);
    std::fill(masks, masks + table, 0u);
    scratch.any.assign(words64, 0);
    for (std::size_t l = 0; l < lanes; ++l) {
        const std::vector<std::uint64_t>& words = fibers[l].mask.words();
        const TimeWord* next_value = fibers[l].values.data();
        std::uint32_t rank = 0;
        for (std::size_t w = 0; w < words64; ++w) {
            const std::uint64_t word = words[w];
            scratch.any[w] |= word;
            const std::size_t h_end = std::min(2 * w + 2, words32);
            for (std::size_t h = 2 * w; h < h_end; ++h) {
                const auto half =
                    static_cast<std::uint32_t>(word >> (32 * (h - 2 * w)));
                masks[h * kLanes + l] = half;
                ranks[h * kLanes + l] = rank;
                rank += static_cast<std::uint32_t>(popcount64(half));
            }
            for (std::uint64_t x = word; x != 0; x &= x - 1) {
                const auto bit = static_cast<std::size_t>(lowestSetBit(x));
                values[(w * 64 + bit) * kLanes + l] = *next_value++;
            }
        }
        bases[l] = static_cast<std::uint32_t>(value_bases[l]);
    }
    scratch.lanes = lanes;
    scratch.positions = positions;
    if (scratch.results.size() < lanes)
        scratch.results.resize(lanes);
    return true;
}

const JoinResult*
InnerJoinUnit::joinWave(const WeightFiber& fiber_b,
                        const RankedBitmask& rank_b,
                        WaveScratch& scratch) const
{
    if (fiber_b.mask.size() != scratch.positions)
        panic("wave join over mismatched fiber lengths %zu vs %zu",
              scratch.positions, fiber_b.mask.size());
    JoinResult* const results = scratch.results.data();
#if LOAS_WAVE_JOIN
    const auto tbits = static_cast<std::uint64_t>(timesteps_);
    const std::size_t table =
        ceilDiv<std::size_t>(scratch.positions, 32) * kLanes;
    // A lane writes at most one run per match, and matches at most
    // every non-zero weight of the column.
    const std::size_t run_stride = fiber_b.values.size();
    if (scratch.runs.size() < kLanes * run_stride)
        scratch.runs.resize(kLanes * run_stride);
    const WaveJob job{
        fiber_b.mask.words().data(),
        rank_b.prefixTable().data(),
        fiber_b.values.data(),
        scratch.any.data(),
        scratch.any.size(),
        alignedRoom(scratch.masks, table),
        alignedRoom(scratch.ranks, table),
        alignedRoom(scratch.values, scratch.positions * kLanes),
        alignedRoom(scratch.bases, kLanes),
        config_.chunk_bits,
        static_cast<std::uint32_t>(config_.laggyLatency()),
        static_cast<std::uint32_t>(config_.setup_cycles),
        static_cast<std::uint32_t>(timesteps_),
        static_cast<std::uint32_t>(lowMask64(timesteps_)),
        static_cast<std::uint32_t>(config_.fifo_depth),
        line_shift_,
        scratch.runs.data(),
        run_stride,
    };
    WaveLanes lanes{};
    waveKernel(job, lanes);

    // Per lane: the written runs, then the fields of the lane's totals.
    const std::uint64_t chunks =
        ceilDiv<std::uint64_t>(scratch.positions, config_.chunk_bits);
    for (std::size_t l = 0; l < scratch.lanes; ++l) {
        JoinResult& result = results[l];
        const SpikeRun* const runs = scratch.runs.data() + l * run_stride;
        result.runs.assign(runs, runs + lanes.runs[l]);
        result.sums.resize(static_cast<std::size_t>(timesteps_));
        for (int t = 0; t < timesteps_; ++t)
            result.sums[static_cast<std::size_t>(t)] = lanes.sums[t][l];
        const std::uint64_t matches = lanes.matches[l];
        const JoinTotals totals{
            lanes.now[l],
            lanes.prev_check[l],
            lanes.next_chunk[l],
            lanes.matched_chunks[l],
            matches,
            lanes.corrections[l],
            tbits * matches - lanes.one_bits[l],
        };
        finish(config_, timesteps_, chunks, job.laggy_latency, totals,
               result);
    }
#else
    panic("InnerJoinUnit::joinWave: no wave kernel in this build");
#endif
    return results;
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
