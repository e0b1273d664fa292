/**
 * @file
 * Test-support match walks over RankedBitmask pairs: the oracles and
 * baselines that the one full-range walk in tensor/ranked_bitmask.hh
 * replaced on the simulation path. They stay for the tests that check
 * the join against them and for micro_kernels' sequential baseline:
 *
 *  - anyMatch and the ranged forEachMatch over a bit range [lo, hi),
 *    the chunk-stepped inner-join oracle;
 *  - the one-rank forEachMatch(Bitmask, RankedBitmask), the
 *    per-timestep SparTen oracle and BM_TemporalJoinSequential.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/kernel_dispatch.hh"
#include "tensor/bitmask.hh"
#include "tensor/ranked_bitmask.hh"

namespace loas {

namespace detail {

/** AND of word w of a and b, masked to the bit range [lo, hi). */
inline std::uint64_t
rangeWord(const std::vector<std::uint64_t>& a,
          const std::vector<std::uint64_t>& b, std::size_t w,
          std::size_t lo, std::size_t hi)
{
    std::uint64_t x = a[w] & b[w];
    const std::size_t base = w * Bitmask::kWordBits;
    if (lo > base)
        x &= ~lowMask64(static_cast<int>(lo - base));
    if (hi < base + Bitmask::kWordBits)
        x &= lowMask64(static_cast<int>(hi - base));
    return x;
}

/**
 * Word-index split of a bit range [lo, hi): the words in
 * [full_lo, full_hi) lie entirely inside the range, so their raw AND
 * equals rangeWord() and the dispatched SIMD scan may skip over them;
 * the at-most-one leading word [w_begin, full_lo) and trailing words
 * [full_hi, w_end) straddle a range boundary and need rangeWord()'s
 * masking. When lo and hi fall inside the same word, full_lo == full_hi
 * and the leading region covers everything.
 */
struct WordRange
{
    std::size_t w_begin;
    std::size_t full_lo;
    std::size_t full_hi;
    std::size_t w_end;
};

inline WordRange
splitWordRange(std::size_t lo, std::size_t hi)
{
    WordRange r;
    r.w_begin = lo / Bitmask::kWordBits;
    r.w_end = ceilDiv(hi, Bitmask::kWordBits);
    r.full_lo = std::min(ceilDiv(lo, Bitmask::kWordBits), r.w_end);
    r.full_hi = std::max(hi / Bitmask::kWordBits, r.full_lo);
    return r;
}

} // namespace detail

/** True when a & b has any set bit in [lo, hi); O(words in range). */
inline bool
anyMatch(const Bitmask& a, const Bitmask& b, std::size_t lo,
         std::size_t hi)
{
    if (a.size() != b.size())
        panic("anyMatch over mismatched mask sizes %zu vs %zu",
              a.size(), b.size());
    const auto& wa = a.words();
    const auto& wb = b.words();
    if (lo >= hi)
        return false;
    const detail::WordRange r = detail::splitWordRange(lo, hi);
    for (std::size_t w = r.w_begin; w < r.full_lo; ++w)
        if (detail::rangeWord(wa, wb, w, lo, hi))
            return true;
    if (kernels::ops().firstMatchWord(wa.data(), wb.data(), r.full_lo,
                                      r.full_hi) < r.full_hi)
        return true;
    for (std::size_t w = r.full_hi; w < r.w_end; ++w)
        if (detail::rangeWord(wa, wb, w, lo, hi))
            return true;
    return false;
}

/**
 * Invoke fn(pos, rank_a, rank_b) for every position in [lo, hi) set in
 * both masks, in increasing order. Word-parallel: one 64-bit AND per
 * word plus a ctz per match, with both ranks derived from the prefix
 * tables in O(1) — the cost is O(words in range + matches), never
 * O(matches x words).
 */
template <typename Fn>
void
forEachMatch(const RankedBitmask& a, const RankedBitmask& b,
             std::size_t lo, std::size_t hi, Fn&& fn)
{
    if (a.mask().size() != b.mask().size())
        panic("forEachMatch over mismatched mask sizes %zu vs %zu",
              a.mask().size(), b.mask().size());
    const auto& wa = a.mask().words();
    const auto& wb = b.mask().words();
    if (lo >= hi)
        return;
    // Boundary words take the scalar rangeWord path; the fully-covered
    // middle words advance via the dispatched zero-AND skip scan. The
    // per-match fan-out below is identical in every region, so emit
    // order and results match the all-scalar loop bit for bit.
    const auto emitWord = [&](std::size_t w, std::uint64_t x) {
        while (x) {
            const int bit = lowestSetBit(x);
            x &= x - 1;
            fn(w * Bitmask::kWordBits + static_cast<std::size_t>(bit),
               a.wordRank(w) +
                   static_cast<std::size_t>(
                       popcount64(wa[w] & lowMask64(bit))),
               b.wordRank(w) +
                   static_cast<std::size_t>(
                       popcount64(wb[w] & lowMask64(bit))));
        }
    };
    const detail::WordRange r = detail::splitWordRange(lo, hi);
    for (std::size_t w = r.w_begin; w < r.full_lo; ++w)
        emitWord(w, detail::rangeWord(wa, wb, w, lo, hi));
    const kernels::KernelOps& kops = kernels::ops();
    for (std::size_t w = kops.firstMatchWord(wa.data(), wb.data(),
                                             r.full_lo, r.full_hi);
         w < r.full_hi;
         w = kops.firstMatchWord(wa.data(), wb.data(), w + 1,
                                 r.full_hi))
        emitWord(w, wa[w] & wb[w]);
    for (std::size_t w = r.full_hi; w < r.w_end; ++w)
        emitWord(w, detail::rangeWord(wa, wb, w, lo, hi));
}

/**
 * Invoke fn(pos, rank_b) for every position set in both masks over the
 * full length, with only b's rank materialized (the SparTen join: the
 * spike row is its own data, only the weight offset is needed).
 */
template <typename Fn>
void
forEachMatch(const Bitmask& a, const RankedBitmask& b, Fn&& fn)
{
    if (a.size() != b.mask().size())
        panic("forEachMatch over mismatched mask sizes %zu vs %zu",
              a.size(), b.mask().size());
    const auto& wa = a.words();
    const auto& wb = b.mask().words();
    const kernels::KernelOps& kops = kernels::ops();
    const std::size_t n = wa.size();
    for (std::size_t w = kops.firstMatchWord(wa.data(), wb.data(), 0, n);
         w < n;
         w = kops.firstMatchWord(wa.data(), wb.data(), w + 1, n)) {
        std::uint64_t x = wa[w] & wb[w];
        while (x) {
            const int bit = lowestSetBit(x);
            x &= x - 1;
            fn(w * Bitmask::kWordBits + static_cast<std::size_t>(bit),
               b.wordRank(w) +
                   static_cast<std::size_t>(
                       popcount64(wb[w] & lowMask64(bit))));
        }
    }
}

} // namespace loas
