/**
 * @file
 * The memory hierarchy every accelerator simulator drives: a shared
 * banked SRAM cache backed by an HBM bandwidth model. All accesses are
 * recorded per category so the evaluation can reproduce the paper's
 * traffic breakdowns (Figs. 13/14).
 */

#pragma once

#include <cstdint>
#include <optional>

#include "mem/cache.hh"
#include "mem/traffic.hh"

namespace loas {

/** Shared cache + DRAM pair with byte-level accounting. */
class MemorySystem
{
  public:
    MemorySystem(const CacheConfig& cache_config,
                 const DramConfig& dram_config);

    /**
     * Cached read of `bytes` starting at `addr`: SRAM read traffic is
     * recorded for every byte; missing lines are filled from DRAM.
     */
    void read(TensorCategory cat, std::uint64_t addr, std::uint64_t bytes);

    /**
     * Cached read of a coalesced run: `payload_bytes` of SRAM read
     * traffic are recorded (the bytes the datapath actually consumes),
     * while the cache walks the whole [addr, addr + bytes) line range
     * exactly once. Batching N adjacent read() calls whose spans tile
     * the run into one readRun() keeps misses, evictions, and DRAM
     * traffic identical and drops only the duplicate boundary-line
     * lookups — the address-walk fast path of the LoAS memory model.
     */
    void readRun(TensorCategory cat, std::uint64_t addr,
                 std::uint64_t bytes, std::uint64_t payload_bytes);

    /** Cached write (write-allocate, write-back). */
    void write(TensorCategory cat, std::uint64_t addr,
               std::uint64_t bytes);

    /** DMA-style DRAM read that bypasses the cache. */
    void streamRead(TensorCategory cat, std::uint64_t bytes);

    /** DMA-style DRAM write that bypasses the cache. */
    void streamWrite(TensorCategory cat, std::uint64_t bytes);

    /** Scratchpad (SRAM-only) read: private PE buffers, psum memories. */
    void scratchRead(TensorCategory cat, std::uint64_t bytes);

    /** Scratchpad (SRAM-only) write. */
    void scratchWrite(TensorCategory cat, std::uint64_t bytes);

    /** Write back all dirty cache lines (end of layer). */
    void flushCache();

    /**
     * Return to the just-constructed state (cold cache, zero traffic)
     * without reallocating: execute() scratch buffers keep one
     * MemorySystem per accelerator instance and reset it per layer.
     */
    void reset();

    const TrafficStats& stats() const { return stats_; }
    std::uint64_t cacheHits() const { return cache_.hits(); }
    std::uint64_t cacheMisses() const { return cache_.misses(); }
    double cacheMissRate() const { return cache_.missRate(); }

    /** Total DRAM bytes moved so far (both directions). */
    std::uint64_t dramBytes() const { return stats_.dramBytes(); }

    /** Cycles DRAM needs for the bytes moved so far. */
    std::uint64_t dramCycles() const;

    /** Cycles DRAM needs for a byte delta (phase overlap accounting). */
    std::uint64_t dramCyclesFor(std::uint64_t bytes) const;

  private:
    Cache cache_;
    DramConfig dram_;
    TrafficStats stats_;
};

/**
 * The memory system of one execute(), cold: built on first use, then
 * reset() — never reallocated — on every later execute.
 */
inline MemorySystem&
coldMemory(std::optional<MemorySystem>& mem, const CacheConfig& cache,
           const DramConfig& dram)
{
    if (mem)
        mem->reset();
    else
        mem.emplace(cache, dram);
    return *mem;
}

} // namespace loas
