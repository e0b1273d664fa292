/**
 * @file
 * The FTP-friendly inner-join unit (Section IV-C, Figs. 9-10),
 * simulated cycle-by-cycle.
 *
 * Pipeline per 128-bit bitmask chunk:
 *  1. AND the spike and weight bitmask chunks, priority-encode the
 *     matched positions (one chunk per cycle).
 *  2. The fast prefix-sum circuit emits one matched weight offset per
 *     cycle; the weight is speculatively added to the pseudo-
 *     accumulator (assuming the spike word is all ones) and the pair
 *     (position, weight) is pushed into depth-8 FIFOs.
 *  3. The laggy prefix-sum circuit - a pipelined serial prefix chain
 *     with chunk_bits / adders cycles of latency but one chunk per
 *     cycle of throughput - produces the spike-side offsets; the check
 *     stage then drains one FIFO entry per cycle, fetching the matched
 *     packed spike word and, if it is not all ones, adding the weight
 *     into the correction accumulator of every timestep whose spike
 *     bit is zero.
 *  4. The fast path stalls when the FIFOs are full.
 *
 * The final per-timestep full sums are pseudo - correction[t], exactly
 * Eq. (1) of the paper.
 *
 * The host-side kernel makes one allocation-free pass over the fiber
 * pair: the dispatched full-range forEachMatch visits only the non-zero
 * AND words, both fiber offsets come from the O(1) RankedBitmask prefix
 * tables compiled in prepare(), and chunks without a match advance the
 * AND/encode frontier arithmetically instead of being scanned. The
 * depth-D FIFOs are a ring of D check times: match i waits on the check
 * of match i - D. Working state lives in a caller-owned JoinScratch
 * reused across calls.
 *
 * The wave join runs the same pipeline for up to 16 TPPEs at once, the
 * way the hardware does (Section IV-D): the PEs of a wave hold the rows
 * of one tile and share the column's broadcast weight fiber. It steps
 * once over the column's non-zero weights in position order and keeps
 * every PE's state (chunk frontier, FIFO, timestamps, sums, op counts,
 * span/run coalescer) in its own 32-bit lane of AVX-512 registers. A
 * lane updates exactly as the per-item walk does for that item, so each
 * lane's JoinResult equals join()'s field for field; the walk stays the
 * oracle and the path of every other ISA and wave shape.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "accel/op_counts.hh"
#include "core/loas_config.hh"
#include "tensor/fiber.hh"
#include "tensor/ranked_bitmask.hh"

namespace loas {

/**
 * One coalesced read of matched packed spike words. Adjacent matched
 * offsets form one span, and a span that starts in the cache line
 * holding the previous run's last byte joins that run: the cache
 * walks [addr, addr + bytes) once while `payload` bytes (the spans'
 * sum) count as SRAM reads.
 */
struct SpikeRun
{
    std::uint64_t addr;
    std::uint64_t bytes;
    std::uint64_t payload;

    bool operator==(const SpikeRun&) const = default;
};

/** Outcome of joining one spike fiber with one weight fiber. */
struct JoinResult
{
    /** Cycles from setup to drain for this fiber pair. */
    std::uint64_t cycles = 0;

    /** Full sums per timestep for this output neuron (Eq. 1). */
    std::vector<std::int32_t> sums;

    /** Matched (non-silent, non-zero-weight) positions. */
    std::uint64_t matches = 0;

    /** Matches whose spike word needed correction (not all ones). */
    std::uint64_t corrections = 0;

    /** Packed spike-value bytes fetched from the global cache. */
    std::uint64_t spike_value_bytes = 0;

    /**
     * The matched packed spike words as coalesced cache reads, in
     * address order: one MemorySystem::readRun() each.
     */
    std::vector<SpikeRun> runs;

    OpCounts ops;
};

/**
 * Reusable working state of the join kernel. One instance per thread
 * (or per accelerator instance — the SimEngine gives every job its
 * own); after the first call its buffers are warm and steady-state
 * joins perform no heap allocations. The JoinResult returned by
 * join() aliases `result` and is overwritten by the next call.
 */
struct JoinScratch
{
    JoinResult result;
    std::vector<std::int64_t> correction; // one slot per timestep
    std::vector<std::uint64_t> fifo;      // last fifo_depth check times
};

/**
 * Working state of the wave join: the loaded spike tile, transposed so
 * that one aligned 64-byte load gives a value for all 16 lanes, and one
 * JoinResult per lane. One per accelerator instance; after the first
 * tile of the largest layer its buffers are warm and steady-state wave
 * joins perform no heap allocations.
 */
struct WaveScratch
{
    std::vector<JoinResult> results;   // one per lane
    std::vector<std::uint32_t> masks;  // [32-bit mask word][lane]
    std::vector<std::uint32_t> ranks;  // [32-bit mask word][lane]
    std::vector<std::uint32_t> values; // [position][lane], dense
    std::vector<std::uint64_t> any;    // [64-bit word]: OR of lanes
    std::vector<std::uint32_t> bases;  // [lane]: first value address
    std::vector<SpikeRun> runs;        // [lane][column non-zero]
    std::size_t lanes = 0;
    std::size_t positions = 0;
};

/** Cycle-level model of one TPPE's inner-join datapath. */
class InnerJoinUnit
{
  public:
    /**
     * `line_bytes` is the global cache's line size (a power of two):
     * the granularity at which join() coalesces spike-value reads.
     */
    InnerJoinUnit(const InnerJoinConfig& config, int timesteps,
                  std::uint32_t line_bytes = CacheConfig{}.line_bytes);

    /**
     * Join one fiber pair and produce the output neuron's full sums.
     * `rank_a` / `rank_b` must view the fibers' masks (compiled
     * artifacts carry them); `value_base` is the address of the spike
     * fiber's first packed value. The returned reference points into
     * `scratch` and is valid until the next join() on that scratch.
     */
    const JoinResult& join(const SpikeFiber& fiber_a,
                           const RankedBitmask& rank_a,
                           const WeightFiber& fiber_b,
                           const RankedBitmask& rank_b,
                           std::uint64_t value_base,
                           JoinScratch& scratch) const;

    /**
     * One-shot convenience for tests and harnesses: builds the rank
     * tables and a private scratch, then returns the result by value
     * (spike values based at address 0).
     */
    JoinResult join(const SpikeFiber& fiber_a,
                    const WeightFiber& fiber_b) const;

    /** PEs one wave join advances together: 32-bit lanes of a zmm. */
    static constexpr std::size_t kWaveLanes = 16;

    /**
     * True when joinWave() can join waves of `lanes` PEs over fibers of
     * `positions` bits: the resolved kernel ISA is AVX-512, `lanes` is
     * at most kWaveLanes, timesteps and FIFO depth are at most 16, and
     * every cycle count of such a join fits a 32-bit lane.
     */
    bool waveFits(std::size_t lanes, std::size_t positions) const;

    /**
     * Make `fibers[0, lanes)` the tile joinWave() joins: lane l is
     * fibers[l], whose first packed value sits at `value_bases[l]`.
     * Call once per tile; every column then streams past it. Returns
     * false, loading nothing, when a value address does not fit a
     * 32-bit lane: the caller joins that tile item by item.
     */
    bool loadTile(const SpikeFiber* fibers,
                  const std::uint64_t* value_bases, std::size_t lanes,
                  WaveScratch& scratch) const;

    /**
     * Join every lane of the loaded tile with one weight fiber. Entry
     * l of the returned array equals join(fibers[l], ..., fiber_b,
     * rank_b, value_bases[l], ...) on every field; it points into
     * `scratch` and is valid until the next joinWave() or loadTile().
     * Requires waveFits() and a successful loadTile().
     */
    const JoinResult* joinWave(const WeightFiber& fiber_b,
                               const RankedBitmask& rank_b,
                               WaveScratch& scratch) const;

    const InnerJoinConfig& config() const { return config_; }
    int timesteps() const { return timesteps_; }

  private:
    /**
     * The one-pass join. join() runs this portable build, or the same
     * code compiled with the POPCNT instruction when the resolved
     * kernel ISA is AVX2 or better (every such host has POPCNT): the
     * two rank counts and the zero-bit count of each match are
     * otherwise library calls.
     */
    const JoinResult& walk(const SpikeFiber& fiber_a,
                           const RankedBitmask& rank_a,
                           const WeightFiber& fiber_b,
                           const RankedBitmask& rank_b,
                           std::uint64_t value_base,
                           JoinScratch& scratch) const;
    const JoinResult& walkPopcnt(const SpikeFiber& fiber_a,
                                 const RankedBitmask& rank_a,
                                 const WeightFiber& fiber_b,
                                 const RankedBitmask& rank_b,
                                 std::uint64_t value_base,
                                 JoinScratch& scratch) const;

    InnerJoinConfig config_;
    int timesteps_;
    int line_shift_;
    bool popcnt_; // run walkPopcnt()
    bool wave_;   // the resolved ISA runs the wave join
};

} // namespace loas
