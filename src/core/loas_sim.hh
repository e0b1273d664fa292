/**
 * @file
 * Top-level cycle-level simulator of the LoAS accelerator (Fig. 7):
 * 16 TPPEs fed by a scheduler, P-LIF units, an output compressor, and a
 * shared banked global cache over HBM. Implements the FTP dataflow of
 * Algorithm 1: every TPPE produces the full sums of one output neuron
 * for ALL timesteps in a single inner-join pass, then fires the P-LIF
 * once.
 */

#pragma once

#include <optional>
#include <vector>

#include "accel/accelerator.hh"
#include "core/compressor.hh"
#include "core/inner_join.hh"
#include "core/loas_config.hh"
#include "core/scheduler.hh"
#include "mem/memory_system.hh"
#include "tensor/spike_tensor.hh"

namespace loas {

/**
 * Compiled LoAS operands: both tensors in the FTP-friendly fiber
 * format (Fig. 8) with their cumulative address-offset tables. Shared
 * by every LoAS design variant — PE count, cache size and pipelining
 * change the datapath, not the compiled format. The spike side carries
 * one compiled fiber set per batch input; the weight side is compiled
 * exactly once however large the batch.
 */
struct LoasCompiled : CompiledArtifact
{
    std::vector<CompiledSpikeFibers> a;  // per input: rows of A
    CompiledWeightFibers b;              // columns of B
};

/** LoAS accelerator model. */
class LoasSim : public Accelerator
{
  public:
    /**
     * @param config        hardware configuration (defaults: Table III)
     * @param ft_compress   enable the fine-tuned-preprocessing output
     *                      rule (discard single-spike output neurons)
     */
    explicit LoasSim(const LoasConfig& config = {},
                     bool ft_compress = false);

    std::string name() const override;

    std::string formatFamily() const override;

    CompiledLayer prepare(const LayerData& layer) const override;

    RunResult executeInput(const CompiledLayer& compiled,
                           std::size_t input) override;

    /**
     * Output spike tensor of input 0 of the last simulated layer,
     * before output compression (for verification against the
     * functional reference).
     */
    const SpikeTensor& lastOutput() const { return last_output_; }

    const LoasConfig& config() const { return config_; }

  private:
    LoasConfig config_;
    bool ft_compress_;
    SpikeTensor last_output_;

    /**
     * Reusable working state of execute(). An instance runs on one
     * thread at a time (the SimEngine gives each batch worker its own
     * instance), so the buffers warm up on the first layer and
     * steady-state execution performs no heap allocations.
     */
    struct ExecuteScratch
    {
        std::optional<MemorySystem> mem;
        JoinScratch join;
        WaveScratch wave;
        std::vector<TimeWord> out_rows;  // m x n, row-major
        std::vector<WorkItem> items;     // current wave
        CompressResult compress;
    };
    ExecuteScratch scratch_;
};

} // namespace loas
