/**
 * @file
 * Gamma-SNN baseline (Section V): the Gustavson's-dataflow spMspM
 * accelerator of Zhang et al. (ASPLOS'21) with a FiberCache, naively
 * running the SNN timestep-by-timestep.
 *
 * Per timestep and output row, the scheduler fetches the compressed B
 * rows selected by the non-zero spikes of the A row and merges them
 * with a radix-limited merger; partial output rows live in the shared
 * FiberCache, so every merge round re-reads and re-writes them
 * on-chip. The sequential temporal dimension multiplies both the
 * merge work and the partial-row SRAM traffic by T (the paper's
 * "13.4x more SRAM traffic" effect), while DRAM traffic stays low -
 * Gustavson's strength.
 */

#pragma once

#include <optional>
#include <vector>

#include "accel/accelerator.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/traffic.hh"
#include "snn/lif.hh"

namespace loas {

/** Configuration of the Gamma baseline. */
struct GammaConfig
{
    int num_pes = 16;

    /** Merger radix: fibers merged per round per PE. */
    int merge_radix = 64;

    /**
     * Merger cost per scattered update (cycles): coordinate compare
     * plus the FiberCache read-modify-write of the partial row.
     */
    std::uint64_t merge_cycles_per_update = 2;

    /** Scheduler cost to switch input fibers. */
    std::uint64_t fiber_switch_cycles = 1;

    /**
     * Coordinate width of the input fiber metadata (bits). Gamma's
     * fibers carry delta-encoded coordinates, far denser than GoSPA's
     * absolute per-spike CSR indices.
     */
    int coord_bits = 4;

    CacheConfig cache;
    DramConfig dram;
    LifParams lif;
};

/**
 * Compiled Gamma-SNN operands: B in row-fiber form plus, per batch
 * input, the scheduler's per-(timestep, output-row) task lists in CSR
 * form — the columns whose spike is set *and* whose B row is
 * non-empty, exactly the fibers the merger consumes. Task t*M+r of
 * input b spans `cols[b][ptr[b][t*M+r], ptr[b][t*M+r+1])`.
 */
struct GammaCompiled : CompiledArtifact
{
    CompiledWeightFibers b;  // rows of B (shared by the batch)
    double weight_density = 0.0;
    std::vector<std::uint64_t> total_spikes;  // per input
    std::vector<std::vector<std::uint32_t>> cols;  // per input
    std::vector<std::vector<std::uint64_t>> ptr;   // per input
};

/**
 * Compiled Gamma ANN operands (family "gamma-ann"): B in row-fiber
 * form plus one per-row CSR task list — the columns whose activation
 * is non-zero *and* whose B row is non-empty, ascending, exactly the
 * fibers the merger consumes. `nnz_acts` counts every non-zero
 * activation (the streamed input bytes), including ones whose B row is
 * empty.
 */
struct GammaAnnCompiled : CompiledArtifact
{
    CompiledWeightFibers b;  // rows of B
    double weight_density = 0.0;
    std::uint64_t nnz_acts = 0;
    std::vector<std::uint32_t> cols;
    std::vector<std::uint64_t> ptr;  // rows + 1 entries
};

/** Gamma running SNN workloads timestep-by-timestep. */
class GammaSim : public Accelerator
{
  public:
    explicit GammaSim(const GammaConfig& config = {});

    std::string name() const override;

    std::string formatFamily() const override;

    CompiledLayer prepare(const LayerData& layer) const override;

    RunResult executeInput(const CompiledLayer& compiled,
                           std::size_t input) override;

    /** Format family of prepareAnn() artifacts. */
    static constexpr const char* kAnnFamily = "gamma-ann";

    /**
     * Phase 1 of the ANN mode (Fig. 18): compress B into row fibers
     * and the activations into the per-row merge-task CSR. The
     * compiled layer carries the "gamma-ann" family, riding the same
     * CompiledCache / artifact-store machinery as SNN layers;
     * execute() dispatches on the family.
     */
    CompiledLayer prepareAnn(const AnnLayerData& layer) const;

  private:
    GammaConfig config_;

    /** The original Gamma datapath over a prepared ANN layer. */
    RunResult executeAnn(const CompiledLayer& compiled);

    /** Reusable execute() working state (see
     *  LoasSim::ExecuteScratch). */
    struct ExecuteScratch
    {
        std::optional<MemorySystem> mem;
        std::vector<bool> fetched;  // one flag per B row
    };
    ExecuteScratch scratch_;
};

} // namespace loas
