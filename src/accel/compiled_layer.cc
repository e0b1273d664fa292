#include "accel/compiled_layer.hh"

#include "common/bitutil.hh"
#include "tensor/compress.hh"
#include "workload/generator.hh"

namespace loas {

namespace {

/** Built fibers plus their rank views and cumulative offsets. */
CompiledWeightFibers
compileWeightFibers(std::vector<WeightFiber> fibers)
{
    CompiledWeightFibers compiled;
    compiled.fibers = std::move(fibers);
    // The rank views point into compiled.fibers, whose elements stay
    // put from here on.
    compiled.ranked.reserve(compiled.fibers.size());
    for (const auto& fiber : compiled.fibers)
        compiled.ranked.emplace_back(fiber.mask);
    compiled.meta_off = cumulativeOffsets(
        compiled.fibers,
        [](const WeightFiber& f) { return f.metadataBytes(); });
    compiled.val_off = cumulativeOffsets(
        compiled.fibers,
        [](const WeightFiber& f) { return f.values.size(); });
    return compiled;
}

} // namespace

std::size_t
CompiledWeightFibers::footprintBytes() const
{
    std::size_t bytes =
        (meta_off.size() + val_off.size()) * sizeof(std::uint64_t);
    for (const auto& fiber : fibers)
        bytes += fiber.storageBytes();
    return bytes;
}

CompiledWeightFibers
compileWeightColumns(const DenseMatrix<std::int8_t>& weights)
{
    return compileWeightFibers(compressWeightColumns(weights));
}

CompiledWeightFibers
compileWeightRows(const DenseMatrix<std::int8_t>& weights)
{
    std::vector<WeightFiber> fibers;
    fibers.reserve(weights.rows());
    for (std::size_t r = 0; r < weights.rows(); ++r)
        fibers.push_back(compressWeightRow(weights, r));
    return compileWeightFibers(std::move(fibers));
}

std::size_t
CompiledSpikeFibers::footprintBytes(int timesteps) const
{
    std::size_t bytes =
        (meta_off.size() + val_off.size()) * sizeof(std::uint64_t);
    for (const auto& fiber : fibers)
        bytes += fiber.storageBytes(timesteps);
    return bytes;
}

CompiledSpikeFibers
compileSpikeRows(const SpikeTensor& spikes)
{
    const int timesteps = spikes.timesteps();
    CompiledSpikeFibers compiled;
    compiled.fibers = compressSpikeRows(spikes);
    compiled.ranked.reserve(compiled.fibers.size());
    for (const auto& fiber : compiled.fibers)
        compiled.ranked.emplace_back(fiber.mask);
    compiled.meta_off = cumulativeOffsets(
        compiled.fibers,
        [](const SpikeFiber& f) { return f.metadataBytes(); });
    compiled.val_off = cumulativeOffsets(
        compiled.fibers, [&](const SpikeFiber& f) {
            return ceilDiv<std::size_t>(
                f.values.size() * static_cast<std::size_t>(timesteps),
                8);
        });
    return compiled;
}

std::vector<std::uint32_t>
denseTimewordCounts(const CompiledSpikeFibers& compiled, int timesteps)
{
    const TimeWord all_ones =
        timesteps >= kMaxTimesteps
            ? ~TimeWord(0)
            : static_cast<TimeWord>((TimeWord(1) << timesteps) - 1);
    std::vector<std::uint32_t> counts(compiled.fibers.size(), 0);
    for (std::size_t i = 0; i < compiled.fibers.size(); ++i)
        for (const TimeWord w : compiled.fibers[i].values)
            counts[i] += (w & all_ones) == all_ones ? 1u : 0u;
    return counts;
}

CompiledLayer
makeCompiledLayer(const LayerData& layer, std::string family,
                  std::shared_ptr<const CompiledArtifact> artifact,
                  std::size_t artifact_bytes)
{
    CompiledLayer compiled;
    compiled.spec = layer.spec;
    compiled.family = std::move(family);
    compiled.m = layer.spikes.rows();
    compiled.k = layer.spikes.cols();
    compiled.n = layer.weights.cols();
    compiled.timesteps = layer.spec.t;
    compiled.batch = layer.batchSize();
    compiled.bytes = artifact_bytes;
    compiled.artifact = std::move(artifact);
    return compiled;
}

} // namespace loas
