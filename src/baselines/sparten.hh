/**
 * @file
 * SparTen-SNN baseline (Section V): the inner-product, inner-join
 * bitmask accelerator of Gondimalla et al. (MICRO'19), stripped of its
 * multipliers and naively running an SNN by processing the T timesteps
 * sequentially with the temporal dimension at the innermost loop (the
 * paper's conservative baseline construction).
 *
 * Per output neuron and per timestep, the PE streams the raw spike
 * train of row m (the spike train doubles as the bitmask, so all K
 * bits are fetched), ANDs it chunk-by-chunk with the weight column's
 * bitmask, and accumulates matched weights at one match per cycle; a
 * LIF step closes each timestep. Each extra timestep pays a full
 * mask-scan plus an inner-join pipeline restart. The host evaluates
 * this from the packed operand: one fan-out join (core/fused_join.hh)
 * yields every per-timestep sum and match count.
 *
 * The ANN mode (Fig. 18) keeps the original SparTen datapath: both
 * operands compressed as bitmask+values, two fast prefix-sum circuits
 * and int8 MACs, single "timestep".
 */

#pragma once

#include <optional>
#include <vector>

#include "accel/accelerator.hh"
#include "core/scheduler.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/traffic.hh"
#include "snn/lif.hh"
#include "tensor/spike_tensor.hh"

namespace loas {

/** Configuration of the SparTen baseline. */
struct SpartenConfig
{
    int num_pes = 16;
    std::size_t chunk_bits = 128;

    /**
     * Passes over the bitmask chunks per join: SparTen's PE streams
     * both operands' chunk buffers through a single port before the
     * prefix stage consumes them.
     */
    std::uint64_t mask_stream_passes = 2;

    /** Inner-join pipeline restart cost per (neuron, timestep). */
    std::uint64_t t_restart_cycles = 10;

    /** Fixed scheduling overhead per wave. */
    std::uint64_t wave_overhead_cycles = 1;

    /**
     * Fused temporally-parallel joins: AND each weight word once and
     * fan matches out to all T accumulators (one mask scan and one
     * pipeline restart per output neuron instead of T), fed from the
     * temporally-packed compiled operand. Off by default — the
     * sequential datapath is the paper's conservative baseline.
     */
    bool fused = false;

    /**
     * Collapse policy of the fused datapath: a row aggregates
     * timesteps through the pseudo-accumulator when at least this
     * fraction of its stored temporal words is all ones (0 = always
     * collapse, 1 = only fully dense rows; see core/fused_join.hh).
     */
    double collapse_threshold = 0.75;

    CacheConfig cache;
    DramConfig dram;
    LifParams lif;

    /**
     * Cycle model of one sequential-datapath join at a single
     * timestep: stream the mask chunks, drain one match per cycle,
     * restart the pipeline for the next timestep.
     */
    std::uint64_t
    timestepJoinCycles(std::size_t chunks, std::uint64_t matches) const
    {
        return mask_stream_passes * chunks + matches + t_restart_cycles;
    }

    /**
     * Cycle model of one fused join covering all T timesteps: a single
     * mask-chunk stream, one accumulator update per cycle (fan-out
     * adds plus collapse corrections), a single restart.
     */
    std::uint64_t
    fusedJoinCycles(std::size_t chunks, std::uint64_t updates) const
    {
        return mask_stream_passes * chunks + updates + t_restart_cycles;
    }
};

/**
 * Compiled SparTen-SNN operands: B in column-fiber form plus, per
 * batch input, the temporally-packed spike fibers of A that both
 * datapaths join, with the per-row dense-timeword counts the fused
 * datapath's collapse policy keys on. Artifacts depend only on layer
 * data, so the fused=0/1 design variants share one compilation.
 */
struct SpartenCompiled : CompiledArtifact
{
    CompiledWeightFibers b;  // columns of B (shared by the batch)
    std::vector<CompiledSpikeFibers> packed;  // per input: M fibers
    /** Per input, per row: stored temporal words that are all ones. */
    std::vector<std::vector<std::uint32_t>> dense_nnz;
};

/**
 * Compiled SparTen ANN operands (family "sparten-ann"): both int8
 * operands in bitmask+values fiber form with their offset tables — the
 * activation rows of A and the weight columns of B. Single input,
 * single "timestep".
 */
struct SpartenAnnCompiled : CompiledArtifact
{
    CompiledWeightFibers a;  // rows of A (non-zero activations)
    CompiledWeightFibers b;  // columns of B
};

/** SparTen running SNN workloads timestep-by-timestep. */
class SpartenSim : public Accelerator
{
  public:
    explicit SpartenSim(const SpartenConfig& config = {});

    std::string name() const override;

    std::string formatFamily() const override;

    CompiledLayer prepare(const LayerData& layer) const override;

    RunResult executeInput(const CompiledLayer& compiled,
                           std::size_t input,
                           std::size_t worker) override;

    void reserveWorkers(std::size_t workers) override;

    /** Format family of prepareAnn() artifacts. */
    static constexpr const char* kAnnFamily = "sparten-ann";

    /**
     * Phase 1 of the ANN mode (Fig. 18): compress both int8 operands
     * into bitmask+values fiber form. The compiled layer carries the
     * "sparten-ann" family, so it rides the same CompiledCache /
     * artifact-store machinery as SNN layers; execute() dispatches on
     * the family.
     */
    CompiledLayer prepareAnn(const AnnLayerData& layer) const;

    /** Output spikes of input 0 of the last SNN layer (verification). */
    const SpikeTensor& lastOutput() const { return last_output_; }

  private:
    SpartenConfig config_;
    SpikeTensor last_output_;

    /** The original SparTen datapath over a prepared ANN layer. */
    RunResult executeAnn(const CompiledLayer& compiled,
                         std::size_t worker);

    /** Reusable per-worker execute() working state (see
     *  LoasSim::ExecuteScratch). */
    struct ExecuteScratch
    {
        std::optional<MemorySystem> mem;
        std::vector<std::int32_t> sums;  // one slot per timestep
        std::vector<std::int64_t> correction;  // collapse-path scratch
        std::vector<WorkItem> items;     // current wave
    };
    std::vector<ExecuteScratch> scratch_;
};

} // namespace loas
