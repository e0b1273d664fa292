/**
 * @file
 * O(1) rank acceleration for Bitmask: a per-word prefix-popcount table,
 * the software analogue of the precomputed offset tables the paper's
 * prefix-sum circuits (Fig. 8) stream from memory. Built once per fiber
 * in an accelerator's prepare() phase and stored inside the compiled
 * artifacts, so the cost is amortized across every execute() of every
 * design variant sharing the CompiledCache entry.
 *
 * A RankedBitmask is a *view*: it holds a pointer to the Bitmask it
 * indexes plus the prefix table. The viewed Bitmask must outlive the
 * view and must not be mutated or relocated after construction (moving
 * the *container* that owns both — e.g. a compiled-fiber struct whose
 * vector storage transfers wholesale — is fine; element-wise copies or
 * vector reallocation are not).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/kernel_dispatch.hh"
#include "tensor/bitmask.hh"

namespace loas {

/** Prefix-popcount view over a Bitmask giving O(1) rank queries. */
class RankedBitmask
{
  public:
    RankedBitmask() = default;

    /** Build the per-word rank table for `mask` (O(words) once). */
    explicit RankedBitmask(const Bitmask& mask) : mask_(&mask)
    {
        const auto& words = mask.words();
        prefix_.resize(words.size() + 1);
        std::uint32_t running = 0;
        for (std::size_t w = 0; w < words.size(); ++w) {
            prefix_[w] = running;
            running += static_cast<std::uint32_t>(popcount64(words[w]));
        }
        prefix_[words.size()] = running;
    }

    /**
     * Reattach a stored prefix table to `mask` (deserialization of the
     * on-disk compiled-artifact format). The table must be the one
     * RankedBitmask(mask) would build: words()+1 entries ending in the
     * mask's popcount (panic otherwise — offset arithmetic downstream
     * has no other guard).
     */
    RankedBitmask(const Bitmask& mask, std::vector<std::uint32_t> prefix)
        : mask_(&mask), prefix_(std::move(prefix))
    {
        if (prefix_.size() != mask.words().size() + 1 ||
            prefix_.back() != mask.popcount())
            panic("RankedBitmask prefix table does not match its mask "
                  "(%zu entries, total %u, mask %zu words / %zu set)",
                  prefix_.size(),
                  prefix_.empty() ? 0u : prefix_.back(),
                  mask.words().size(), mask.popcount());
    }

    /** The raw prefix-popcount table (serialization). */
    const std::vector<std::uint32_t>& prefixTable() const
    {
        return prefix_;
    }

    /** The viewed mask (must still be alive). */
    const Bitmask&
    mask() const
    {
        return *mask_;
    }

    /** Set bits strictly before the start of word w. */
    std::uint32_t wordRank(std::size_t w) const { return prefix_[w]; }

    /** Total set bits of the viewed mask. */
    std::size_t popcount() const { return prefix_.back(); }

    /** Set bits strictly before position i, in O(1). */
    std::size_t
    rank(std::size_t i) const
    {
        if (i > mask_->size())
            panic("RankedBitmask::rank out of range: %zu > %zu", i,
                  mask_->size());
        const std::size_t w = i / Bitmask::kWordBits;
        if (w >= mask_->words().size())
            return prefix_.back();
        const int rem = static_cast<int>(i % Bitmask::kWordBits);
        return prefix_[w] +
               static_cast<std::size_t>(
                   popcount64(mask_->words()[w] & lowMask64(rem)));
    }

    /** Popcount of the sub-range [lo, hi), in O(1). */
    std::size_t
    popcountRange(std::size_t lo, std::size_t hi) const
    {
        if (hi > mask_->size())
            hi = mask_->size();
        if (lo >= hi)
            return 0;
        return rank(hi) - rank(lo);
    }

  private:
    const Bitmask* mask_ = nullptr;
    std::vector<std::uint32_t> prefix_; // words() + 1 entries
};

/**
 * Invoke fn(pos, rank_a, rank_b) for every position set in both masks
 * over the full length — the fused temporally-parallel join: one
 * 64-bit AND per weight word serves every timestep at once, with both
 * value offsets coming from the compiled prefix tables in O(1). Always
 * inlined, so a caller compiled for a wider target (the inner join's
 * POPCNT build) counts the ranks with that target's instructions.
 */
template <typename Fn>
[[gnu::always_inline]] inline void
forEachMatch(const RankedBitmask& a, const RankedBitmask& b, Fn&& fn)
{
    if (a.mask().size() != b.mask().size())
        panic("forEachMatch over mismatched mask sizes %zu vs %zu",
              a.mask().size(), b.mask().size());
    const auto& wa = a.mask().words();
    const auto& wb = b.mask().words();
    const kernels::KernelOps& kops = kernels::ops();
    const std::size_t n = wa.size();
    // The dispatched scan hops straight to the next non-zero AND word
    // (the common case at realistic sparsities is long zero runs);
    // every matched word then fans out exactly as the scalar loop
    // would, so results are bit-identical at any ISA.
    for (std::size_t w = kops.firstMatchWord(wa.data(), wb.data(), 0, n);
         w < n;
         w = kops.firstMatchWord(wa.data(), wb.data(), w + 1, n)) {
        const std::uint64_t aw = wa[w];
        std::uint64_t x = aw & wb[w];
        // Word-local state hoisted out of the per-match loop: both
        // word ranks load once, and positions/ranks derive from the
        // cached words.
        const std::uint64_t bw = wb[w];
        const std::size_t base = w * Bitmask::kWordBits;
        const std::size_t ra = a.wordRank(w);
        const std::size_t rb = b.wordRank(w);
        while (x) {
            const int bit = lowestSetBit(x);
            x &= x - 1;
            fn(base + static_cast<std::size_t>(bit),
               ra + static_cast<std::size_t>(
                        popcount64(aw & lowMask64(bit))),
               rb + static_cast<std::size_t>(
                        popcount64(bw & lowMask64(bit))));
        }
    }
}

} // namespace loas
