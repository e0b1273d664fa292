/**
 * @file
 * Compiled-workload artifacts: what an accelerator's prepare phase
 * produces and its execute phase consumes.
 *
 * The LoAS pipeline (and every baseline it is compared against)
 * preprocesses its operands exactly once — compressed fibers, CSR-like
 * views, cumulative address-offset tables — and then streams them
 * through the datapath. The prepare/execute split mirrors that:
 * prepare() lowers a LayerData into a format-family-specific
 * CompiledLayer, and execute() simulates the datapath over the compiled
 * form. Artifacts depend only on the layer contents (never on hardware
 * options like PE count or cache size), so every design variant of a
 * family shares one compilation — the CompiledCache in
 * workload/compiled_cache.hh memoizes them across sweep cells.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "tensor/dense_matrix.hh"
#include "tensor/fiber.hh"
#include "tensor/ranked_bitmask.hh"
#include "tensor/spike_tensor.hh"
#include "workload/layer_spec.hh"

namespace loas {

struct LayerData;

/** Base of the per-format-family compiled artifacts. */
struct CompiledArtifact
{
    virtual ~CompiledArtifact() = default;
};

/**
 * One layer after the prepare phase: the source shape and spec plus a
 * shared, immutable family artifact. CompiledLayers are value types;
 * copies share the artifact, so caching and cross-thread reuse are
 * cheap and read-only by construction.
 */
struct CompiledLayer
{
    LayerSpec spec;      // copy of the source layer's spec
    std::string family;  // format family that produced the artifact

    /** Operand shapes observed at prepare time. */
    std::size_t m = 0, k = 0, n = 0;
    int timesteps = 0;

    /** Input tensors compiled into the artifact (the batch axis);
     *  the weight-side operand is compiled exactly once per layer. */
    std::size_t batch = 1;

    /** Artifact footprint estimate in bytes (cache accounting). */
    std::size_t bytes = 0;

    std::shared_ptr<const CompiledArtifact> artifact;
};

/**
 * Family-checked artifact access for execute() implementations. Handing
 * an accelerator a foreign family's compiled layer is an unrecoverable
 * harness error, reported via fatal() rather than undefined behavior.
 */
template <typename T>
const T&
artifactAs(const CompiledLayer& compiled, const std::string& family)
{
    if (compiled.family != family)
        fatal("cannot execute a '%s'-family compiled layer on a "
              "'%s'-family accelerator (layer '%s')",
              compiled.family.c_str(), family.c_str(),
              compiled.spec.name.c_str());
    if (!compiled.artifact)
        fatal("compiled layer '%s' carries no artifact",
              compiled.spec.name.c_str());
    return static_cast<const T&>(*compiled.artifact);
}

/** Cumulative byte offsets of per-fiber storage (offsets[0] = 0). */
template <typename FiberVec, typename SizeFn>
std::vector<std::uint64_t>
cumulativeOffsets(const FiberVec& fibers, SizeFn&& size_of)
{
    std::vector<std::uint64_t> offsets(fibers.size() + 1, 0);
    for (std::size_t i = 0; i < fibers.size(); ++i)
        offsets[i + 1] = offsets[i] + size_of(fibers[i]);
    return offsets;
}

/**
 * Weight fibers plus their cumulative metadata/value address offsets —
 * the compiled form of one B operand (columns for inner-product
 * designs, rows for the Gustavson baselines). `ranked[i]` is the O(1)
 * rank view of `fibers[i].mask`, built once here so every execute()
 * resolves value offsets in constant time.
 *
 * Move-only: the rank views point into `fibers`, which stays valid
 * under a move of the whole struct (the vector's storage transfers)
 * but not under a copy.
 */
struct CompiledWeightFibers
{
    CompiledWeightFibers() = default;
    CompiledWeightFibers(const CompiledWeightFibers&) = delete;
    CompiledWeightFibers& operator=(const CompiledWeightFibers&) = delete;
    CompiledWeightFibers(CompiledWeightFibers&&) = default;
    CompiledWeightFibers& operator=(CompiledWeightFibers&&) = default;

    std::vector<WeightFiber> fibers;
    std::vector<RankedBitmask> ranked;    // fibers.size() entries
    std::vector<std::uint64_t> meta_off;  // fibers.size() + 1 entries
    std::vector<std::uint64_t> val_off;   // fibers.size() + 1 entries

    /** Approximate in-memory footprint of the compiled operand. */
    std::size_t footprintBytes() const;
};

/** Compile every column of B (inner-product dataflows). */
CompiledWeightFibers
compileWeightColumns(const DenseMatrix<std::int8_t>& weights);

/** Compile every row of B (Gustavson dataflows). */
CompiledWeightFibers
compileWeightRows(const DenseMatrix<std::int8_t>& weights);

/**
 * Spike fibers plus their cumulative offsets — the compiled form of the
 * A operand under the FTP-friendly format. Value offsets are byte
 * addresses of the packed T-bit temporal words (per-row regions are
 * byte-aligned, values pack within a row, Fig. 8). `ranked[i]` is the
 * O(1) rank view of `fibers[i].mask`; move-only for the same reason as
 * CompiledWeightFibers.
 */
struct CompiledSpikeFibers
{
    CompiledSpikeFibers() = default;
    CompiledSpikeFibers(const CompiledSpikeFibers&) = delete;
    CompiledSpikeFibers& operator=(const CompiledSpikeFibers&) = delete;
    CompiledSpikeFibers(CompiledSpikeFibers&&) = default;
    CompiledSpikeFibers& operator=(CompiledSpikeFibers&&) = default;

    std::vector<SpikeFiber> fibers;
    std::vector<RankedBitmask> ranked;    // fibers.size() entries
    std::vector<std::uint64_t> meta_off;  // fibers.size() + 1 entries
    std::vector<std::uint64_t> val_off;   // fibers.size() + 1 entries

    /** Approximate in-memory footprint of the compiled operand. */
    std::size_t footprintBytes(int timesteps) const;
};

/** Compile every row of A, packing values at the tensor's timestep width. */
CompiledSpikeFibers compileSpikeRows(const SpikeTensor& spikes);

/**
 * Per-fiber count of stored temporal words that are all ones across
 * `timesteps` — the data-dependent density signal the fused join's
 * collapse policy keys on. Precomputed at prepare time so execute()
 * picks a datapath per row in O(1).
 */
std::vector<std::uint32_t>
denseTimewordCounts(const CompiledSpikeFibers& compiled, int timesteps);

/**
 * Assemble a CompiledLayer around a family artifact: copies the spec,
 * records the operand shapes and timestep count, and takes ownership of
 * the artifact. Every prepare() implementation funnels through this so
 * the bookkeeping fields cannot drift apart.
 */
CompiledLayer
makeCompiledLayer(const LayerData& layer, std::string family,
                  std::shared_ptr<const CompiledArtifact> artifact,
                  std::size_t artifact_bytes);

} // namespace loas
