/**
 * @file
 * Common interface of all accelerator simulators (LoAS and the
 * SparTen/GoSPA/Gamma/PTB/Stellar baselines).
 *
 * Simulation is a two-phase pipeline. prepare() lowers a layer's
 * operands into the design's compressed formats (fibers, per-timestep
 * views, cumulative address-offset tables) — expensive, and a function
 * of the layer alone. execute() streams the compiled layer through the
 * modeled datapath — a function of the layer *and* the hardware
 * configuration. Because prepare() output never depends on hardware
 * options, design variants of one format family (`loas?pes=16` vs
 * `loas?pes=64`) share compiled artifacts; the SimEngine memoizes them
 * in a CompiledCache across sweep cells.
 *
 * runLayer() remains as the one-shot convenience (prepare + execute)
 * for harnesses and tests that simulate a layer once.
 *
 * An instance runs on one thread at a time: execute() reuses the
 * backend's scratch members, the way each TPPE owns its join unit and
 * accumulators. Inputs that run in parallel run on separate instances
 * (the SimEngine makes one per batch worker; registry.make() is
 * cheap).
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "accel/compiled_layer.hh"
#include "accel/run_result.hh"
#include "workload/generator.hh"

namespace loas {

/** An accelerator model that can run dual-sparse SNN layers. */
class Accelerator
{
  public:
    virtual ~Accelerator() = default;

    /** Short display name ("LoAS", "SparTen-SNN", ...). */
    virtual std::string name() const = 0;

    /**
     * Format-family key of this design's compiled artifacts. Two
     * accelerator instances with the same family produce identical
     * prepare() output for the same layer, whatever their hardware
     * options — the contract that lets the CompiledCache share
     * artifacts across design variants.
     */
    virtual std::string formatFamily() const = 0;

    /**
     * Phase 1: lower one layer into this design's compiled operand
     * formats. Depends only on the layer (never on hardware options).
     */
    virtual CompiledLayer prepare(const LayerData& layer) const = 0;

    /**
     * Phase 2: simulate the datapath over a compiled layer — input 0
     * of its batch. Sugar for executeInput(compiled, 0); every backend
     * implements the one entry point.
     */
    RunResult execute(const CompiledLayer& compiled)
    {
        return executeInput(compiled, 0);
    }

    /**
     * Phase 2 over one input of a batched compiled layer. The layer
     * must come from this design's format family, and `input` must be
     * in range (fatal otherwise).
     */
    virtual RunResult executeInput(const CompiledLayer& compiled,
                                   std::size_t input) = 0;

    /**
     * executeInput(compiled, input); the third argument is ignored.
     * The repository benchmark's traced replay (perfbench/) still
     * calls this older form, and its sources change only together
     * with the benchmark definition. Nothing else may call it.
     */
    RunResult executeInput(const CompiledLayer& compiled,
                           std::size_t input, std::size_t /*ignored*/)
    {
        return executeInput(compiled, input);
    }

    /** One-shot convenience: prepare + execute. */
    RunResult runLayer(const LayerData& layer);

    /** Simulate a whole network; layer results are summed. */
    RunResult runNetwork(const std::vector<LayerData>& layers,
                         const std::string& workload_name);

    /**
     * The one network reduction: sums every layer's per-input results
     * layer by layer, each layer in input order, into the network
     * aggregate. `per_input` (optional) receives the per-input
     * network totals. The layers may come from fresh executes or from
     * the CompiledCache's result records — the sum is the same.
     */
    RunResult reduceNetwork(
        const std::vector<std::shared_ptr<const LayerResults>>& layers,
        const std::string& workload_name,
        std::vector<RunResult>* per_input = nullptr) const;
};

} // namespace loas
