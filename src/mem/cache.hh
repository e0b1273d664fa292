/**
 * @file
 * Set-associative write-back cache model for the shared global buffer
 * (Table III: 256 KB, 16 banks, 16-way). Used to derive hit/miss rates
 * and the resulting off-chip traffic; latency is folded into the
 * bandwidth overlap model by the simulators.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mem/traffic.hh"

namespace loas {

/** Geometry of the shared on-chip cache. */
struct CacheConfig
{
    std::uint64_t size_bytes = 256 * 1024;
    std::uint32_t ways = 16;
    std::uint32_t line_bytes = 64;
    std::uint32_t banks = 16;
};

/** LRU set-associative cache with per-line dirty/category state. */
class Cache
{
  public:
    explicit Cache(const CacheConfig& config);

    /** Result of looking up one cache line. */
    struct LineResult
    {
        bool hit;
        /** Dirty line evicted: its size and category must be written. */
        bool writeback;
        TensorCategory writeback_cat;
    };

    /**
     * Access the line containing `addr`; allocate on miss (evicting
     * LRU). `write` marks the line dirty. The set's most recently used
     * way is probed before the full scan.
     */
    LineResult accessLine(std::uint64_t addr, bool write,
                          TensorCategory cat);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0
                          : static_cast<double>(misses_) /
                                static_cast<double>(total);
    }

    const CacheConfig& config() const { return config_; }

    /** log2 of the line size (validated as a power of two). */
    int lineShift() const { return line_shift_; }

    /**
     * Drop all contents, returning dirty bytes per category that must
     * be written back (end-of-layer flush).
     */
    std::array<std::uint64_t, kNumCategories> flush();

    /**
     * Return to the just-constructed state (cold lines, zero counters)
     * without touching the line storage — the reuse path that lets an
     * accelerator's execute() scratch keep one Cache across layers.
     */
    void reset();

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t last_use = 0;
        TensorCategory cat = TensorCategory::Input;
        bool valid = false;
        bool dirty = false;
    };

    CacheConfig config_;
    std::uint64_t num_sets_;
    int line_shift_; // log2(line_bytes)
    bool sets_pow2_; // set index by mask instead of modulo
    std::vector<Line> lines_; // num_sets * ways
    std::vector<std::uint32_t> mru_; // per set: way of the last hit/fill
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace loas
