/**
 * @file
 * Runtime-dispatched SIMD kernel layer.
 *
 * The word-parallel join kernels (PR 4) and the fused temporal join
 * (PR 8) are scalar-64-bit: one AND, one popcount, one ctz fan-out per
 * stored word. On AVX2/AVX-512 hosts the hot inner loops — scanning
 * for the next non-zero AND word and counting matched bits — can run
 * 4–8 words per instruction. This layer picks an instruction set once
 * per process (cpuid at first use, overridable with `--isa` or
 * `$LOAS_ISA`) and exposes the two primitives every join kernel is
 * built from:
 *
 *  - andPopcountWords(a, b, n): popcount of the pairwise AND.
 *  - firstMatchWord(a, b, w, w_end): index of the first word in
 *    [w, w_end) whose AND is non-zero, or w_end.
 *
 * plus the two whole-loop fused temporal-join kernels
 * (fusedFanoutJoin / fusedCollapseJoin) behind fusedTemporalJoin(),
 * where the per-match temporal fan-out itself is vectorized: the T
 * accumulators live in vector lanes and each match lands as one
 * masked lane-add keyed by its packed temporal word.
 *
 * Bit-identity contract: a vector path may (a) skip words the scalar
 * loop would have skipped one at a time, (b) reorder *exact integer*
 * additions across accumulator lanes — each lane still receives the
 * same multiset of adds, and two's-complement addition has no
 * reassociation hazard — and (c) hold independent items in separate
 * lanes, as the LoAS wave join (core/inner_join.hh) holds the PEs of a
 * wave. Within one item, every per-match action (rank lookup, value
 * fetch, FIFO/stall step, correction, span/run merge) happens in the
 * scalar walk's match order, so no vector path can change a
 * RunResult. tests/test_kernel_dispatch.cc, tests/test_wave_join.cc
 * and the golden identity matrix enforce this across every supported
 * ISA.
 *
 * Dispatch cost contract: resolution is a function-local static, so
 * steady state is one load of a function-pointer table per call site.
 * No allocation, no locks after first use — the zero-alloc execute()
 * gate (CI) runs through this layer.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace loas {
namespace kernels {

/** Instruction sets the dispatcher can select, weakest first. */
enum class Isa : int
{
    Scalar = 0, ///< Portable 64-bit words; the reference path.
    Avx2 = 1,   ///< 256-bit AND/testz scan, pshufb-LUT popcount;
                ///< needs POPCNT too (the inner join's build).
    Avx512 = 2, ///< 512-bit scan; needs F+BW+VPOPCNTDQ.
};

/** The dispatched primitives. All pointers are to 64-bit words. */
struct KernelOps
{
    /** popcount(a[i] & b[i]) summed over i in [0, n). */
    std::uint64_t (*andPopcountWords)(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::size_t n);

    /** Smallest i in [w, w_end) with (a[i] & b[i]) != 0, else
     *  w_end. */
    std::size_t (*firstMatchWord)(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t w,
                                  std::size_t w_end);

    /**
     * Fused temporal fan-out join over the whole word range [0, n):
     * for every bit set in a[w] & b[w], adds b_vals[b_off] into
     * sums[t] for each set timestep bit t of the packed temporal word
     * a_vals[a_off], both offsets derived from the per-word rank
     * tables (words + 1 entries each). `sums` must hold `timesteps`
     * zeroed slots; temporal words must have no bits at or above
     * `timesteps`. Adds the popcount of every matched temporal word
     * into *acc_ops and returns the match count. Vector paths keep
     * the accumulators in lanes (one masked lane-add per match) up to
     * an ISA-specific timestep width and fall back to the scalar
     * kernel above it — results are identical either way.
     */
    std::uint64_t (*fusedFanoutJoin)(
        const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
        const std::uint32_t* rank_a, const std::uint32_t* rank_b,
        const std::uint32_t* a_vals, const std::int32_t* b_vals,
        int timesteps, std::int32_t* sums, std::uint64_t* acc_ops);

    /**
     * Fused collapse join ("Collapse or Preserve"): per match adds
     * the weight into *pseudo and into correction[t] (64-bit lanes,
     * `timesteps` zeroed slots) for every *zero* timestep bit within
     * `all_ones`. Adds one acc op per match and one correction op per
     * zero bit; returns the match count. The final per-timestep
     * materialization (pseudo - correction[t]) stays with the caller.
     */
    std::uint64_t (*fusedCollapseJoin)(
        const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
        const std::uint32_t* rank_a, const std::uint32_t* rank_b,
        const std::uint32_t* a_vals, const std::int32_t* b_vals,
        int timesteps, std::uint32_t all_ones, std::int64_t* pseudo,
        std::int64_t* correction, std::uint64_t* acc_ops,
        std::uint64_t* correction_ops);
};

/** The spec-string name of `isa` ("scalar", "avx2", "avx512"). */
const char* isaName(Isa isa);

/** True when the running CPU can execute `isa`'s kernels. */
bool isaSupported(Isa isa);

/** The strongest ISA the running CPU supports. */
Isa bestSupportedIsa();

/**
 * The ISA in effect: the first call resolves `$LOAS_ISA` if set
 * (panicking on an unknown or unsupported name), else
 * bestSupportedIsa(), and later calls return the same choice unless
 * setIsa() intervenes.
 */
Isa resolvedIsa();

/**
 * Override the resolved ISA (CLI `--isa`, tests). Panics when the
 * running CPU does not support `isa`. Not thread-safe against
 * concurrent joins: select before executing, as the CLI does.
 */
void setIsa(Isa isa);

/**
 * Parse "scalar" / "avx2" / "avx512" (as in `--isa` and `$LOAS_ISA`).
 * Returns false on an unknown name.
 */
bool parseIsa(const std::string& name, Isa* out);

/** The dispatch table for the resolved ISA. */
const KernelOps& ops();

} // namespace kernels
} // namespace loas
