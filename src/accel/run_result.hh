/**
 * @file
 * The outcome of simulating a workload on an accelerator model: cycles,
 * traffic, op counts and cache behavior. Network-level results are the
 * sum of layer results.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/op_counts.hh"
#include "common/logging.hh"
#include "mem/traffic.hh"

namespace loas {

/** Aggregated simulation outcome. */
struct RunResult
{
    std::string accel;
    std::string workload;

    /** Cycles the datapath needed assuming memory never stalls it. */
    std::uint64_t compute_cycles = 0;
    /** Cycles DRAM needed for all off-chip bytes at peak bandwidth. */
    std::uint64_t dram_cycles = 0;
    /** End-to-end cycles with compute/memory overlap per phase. */
    std::uint64_t total_cycles = 0;

    TrafficStats traffic;
    OpCounts ops;

    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;

    /**
     * Background-power scale relative to the LoAS-class designs with a
     * 256 KB shared cache (1.0). Small systolic arrays set this lower.
     */
    double static_scale = 1.0;

    double
    cacheMissRate() const
    {
        const std::uint64_t total = cache_hits + cache_misses;
        return total == 0 ? 0.0
                          : static_cast<double>(cache_misses) /
                                static_cast<double>(total);
    }

    /** True when this result carries any simulated work. */
    bool
    hasWork() const
    {
        return compute_cycles != 0 || total_cycles != 0 ||
               ops.total() != 0;
    }

    /**
     * Layer-wise aggregation: cycles add, traffic and counters add.
     *
     * static_scale is a property of the hardware, not of a layer, so
     * summing makes no sense: the accumulator adopts the scale of the
     * first work-bearing summand, and every later work-bearing summand
     * must agree — mixing results from differently-scaled hardware in
     * one aggregate is a harness bug and panics, instead of silently
     * keeping whichever layer happened to come last. Zero-work
     * summands contribute no background-power cycles, so their scale
     * is immaterial and ignored.
     */
    RunResult&
    operator+=(const RunResult& o)
    {
        if (o.hasWork()) {
            if (!hasWork())
                static_scale = o.static_scale;
            else if (static_scale != o.static_scale)
                panic("aggregating RunResults with different "
                      "static_scale (%g vs %g)",
                      static_scale, o.static_scale);
        }
        compute_cycles += o.compute_cycles;
        dram_cycles += o.dram_cycles;
        total_cycles += o.total_cycles;
        traffic += o.traffic;
        ops += o.ops;
        cache_hits += o.cache_hits;
        cache_misses += o.cache_misses;
        return *this;
    }
};

/** Per-input results of one layer, in input order (one entry at batch
 *  1) — what one execute of a compiled layer yields. */
using LayerResults = std::vector<RunResult>;

} // namespace loas
