/**
 * @file
 * GoSPA-SNN baseline (Section V): the outer-product spMspM accelerator
 * of Deng et al. (ISCA'21), multipliers removed, naively running the
 * SNN timestep-by-timestep.
 *
 * Per timestep, the intersection unit streams the non-zero spikes of
 * each column of A (stored as per-timestep CSR with multi-bit
 * coordinates - the conventional compression the paper calls out as
 * inefficient for unary spikes) and applies the corresponding
 * compressed row of B, scattering partial sums into a small on-chip
 * psum memory. Partial-sum matrices that do not fit on-chip spill to
 * DRAM and return for merging (Fig. 5); the extra temporal dimension
 * multiplies the partial-sum working set by T.
 */

#pragma once

#include <optional>

#include "accel/accelerator.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/traffic.hh"
#include "snn/lif.hh"

namespace loas {

/** Configuration of the GoSPA baseline. */
struct GospaConfig
{
    int num_pes = 16;

    /** On-chip partial-sum memory (GoSPA keeps this small). */
    std::uint64_t psum_buffer_bytes = 16 * 1024;

    /**
     * Fraction of the overflowing psum working set that actually
     * round-trips to DRAM per layer; the merger catches the rest
     * in-flight.
     */
    double psum_spill_fraction = 0.15;

    /**
     * Effective DRAM bandwidth divisor for spilled-psum read-modify-
     * write round trips (dependent accesses overlap poorly).
     */
    double psum_spill_bw_divisor = 6.0;

    /** Intersection-unit setup cost per active (timestep, column). */
    std::uint64_t col_setup_cycles = 1;

    /** Spikes the intersection unit can dispatch per cycle. */
    std::uint64_t spike_dispatch_per_cycle = 1;

    /** Coordinate width of the per-spike CSR format (bits). */
    int coord_bits = 12;

    CacheConfig cache;
    DramConfig dram;
    LifParams lif;
};

/**
 * Compiled GoSPA-SNN operands: B in row-fiber form plus, per batch
 * input, the decoupled preprocessing unit's view of A — per-(timestep,
 * column) spike counts of the per-timestep CSC streams
 * (timestep-major: column c at timestep t of input b is
 * `col_spikes[b][t * K + c]`).
 */
struct GospaCompiled : CompiledArtifact
{
    CompiledWeightFibers b;  // rows of B (shared by the batch)
    std::vector<std::vector<std::uint32_t>> col_spikes;  // per input
    std::vector<std::uint64_t> total_spikes;             // per input
};

/** GoSPA running SNN workloads timestep-by-timestep. */
class GospaSim : public Accelerator
{
  public:
    explicit GospaSim(const GospaConfig& config = {});

    std::string name() const override;

    std::string formatFamily() const override;

    CompiledLayer prepare(const LayerData& layer) const override;

    RunResult executeInput(const CompiledLayer& compiled,
                           std::size_t input) override;

    /** Partial-sum DRAM traffic of input 0 of the last layer (Fig. 5). */
    std::uint64_t lastPsumDramBytes() const { return last_psum_dram_; }

  private:
    GospaConfig config_;
    std::uint64_t last_psum_dram_ = 0;

    /** Reusable execute() memory model (see
     *  LoasSim::ExecuteScratch). */
    std::optional<MemorySystem> mem_;
};

} // namespace loas
