/**
 * @file
 * Dense-SNN systolic-array baselines for Fig. 19: PTB (Lee et al.,
 * HPCA'22) and Stellar (Mao et al., HPCA'24), modeled with
 * ScaleSim-style analytical equations for a weight-stationary array
 * (the paper itself used ScaleSim for these baselines).
 *
 * Both are configured as a 16 x 4 array producing 16 full-sum outputs
 * for 4 timesteps in parallel, matching the paper's "fair comparison"
 * setup. Neither exploits weight sparsity (dense weight streaming).
 * PTB processes the timesteps of each time window sequentially inside
 * a column and does not skip zero spikes in the streamed input;
 * Stellar's FS-neuron design is fully temporal-parallel and skips
 * zero spikes.
 */

#pragma once

#include <optional>

#include "accel/accelerator.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/traffic.hh"
#include "snn/lif.hh"

namespace loas {

/** Shared configuration of the systolic baselines. */
struct SystolicConfig
{
    int rows = 16; // output-neuron lanes
    int cols = 4;  // time-window lanes
    CacheConfig cache;
    DramConfig dram;
    LifParams lif;
};

/**
 * Compiled operands of the dense systolic models: the per-input
 * spike-count statistics the analytical equations consume. Dense
 * weight streaming needs no compression, so this is the whole artifact
 * — shared by PTB and Stellar (one "systolic" family).
 */
struct SystolicCompiled : CompiledArtifact
{
    std::vector<std::uint64_t> spikes;  // per input: total spikes of A
    std::vector<std::uint64_t> max_spikes_per_t;  // densest timestep
};

/** Shared prepare phase (and config) of both systolic models. */
class SystolicBase : public Accelerator
{
  public:
    explicit SystolicBase(const SystolicConfig& config);
    std::string formatFamily() const override;
    CompiledLayer prepare(const LayerData& layer) const override;

  protected:
    SystolicConfig config_;

    /** Reusable execute() memory model (see
     *  LoasSim::ExecuteScratch). */
    std::optional<MemorySystem> mem_;
};

/** PTB: partially temporal-parallel systolic array. */
class PtbSim : public SystolicBase
{
  public:
    explicit PtbSim(const SystolicConfig& config = {});
    std::string name() const override;
    RunResult executeInput(const CompiledLayer& compiled,
                           std::size_t input) override;
};

/** Stellar: fully temporal-parallel FS-neuron systolic array. */
class StellarSim : public SystolicBase
{
  public:
    explicit StellarSim(const SystolicConfig& config = {});
    std::string name() const override;
    RunResult executeInput(const CompiledLayer& compiled,
                           std::size_t input) override;
};

} // namespace loas
