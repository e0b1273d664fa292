#include "tensor/compress.hh"

#include "common/logging.hh"

namespace loas {

SpikeFiber
compressSpikeRow(const SpikeTensor& spikes, std::size_t row)
{
    SpikeFiber fiber;
    fiber.mask = Bitmask(spikes.cols());
    for (std::size_t c = 0; c < spikes.cols(); ++c) {
        const TimeWord w = spikes.word(row, c);
        if (w != 0) {
            fiber.mask.set(c);
            fiber.values.push_back(w);
        }
    }
    return fiber;
}

std::vector<SpikeFiber>
compressSpikeRows(const SpikeTensor& spikes)
{
    std::vector<SpikeFiber> fibers;
    fibers.reserve(spikes.rows());
    for (std::size_t r = 0; r < spikes.rows(); ++r)
        fibers.push_back(compressSpikeRow(spikes, r));
    return fibers;
}

SpikeTensor
decompressSpikeRows(const std::vector<SpikeFiber>& fibers,
                    std::size_t cols, int timesteps)
{
    SpikeTensor out(fibers.size(), cols, timesteps);
    for (std::size_t r = 0; r < fibers.size(); ++r) {
        const auto& fiber = fibers[r];
        if (fiber.mask.size() != cols)
            panic("fiber %zu mask size %zu != cols %zu", r,
                  fiber.mask.size(), cols);
        std::size_t next = 0;
        fiber.mask.forEachSet([&](std::size_t c) {
            out.setWord(r, c, fiber.values[next++]);
        });
        if (next != fiber.values.size())
            panic("fiber %zu mask popcount %zu != value count %zu", r,
                  next, fiber.values.size());
    }
    return out;
}

WeightFiber
compressWeightColumn(const DenseMatrix<std::int8_t>& weights,
                     std::size_t col)
{
    WeightFiber fiber;
    fiber.mask = Bitmask(weights.rows());
    for (std::size_t r = 0; r < weights.rows(); ++r) {
        const std::int8_t v = weights(r, col);
        if (v != 0) {
            fiber.mask.set(r);
            fiber.values.push_back(v);
        }
    }
    return fiber;
}

std::vector<WeightFiber>
compressWeightColumns(const DenseMatrix<std::int8_t>& weights)
{
    std::vector<WeightFiber> fibers;
    fibers.reserve(weights.cols());
    for (std::size_t c = 0; c < weights.cols(); ++c)
        fibers.push_back(compressWeightColumn(weights, c));
    return fibers;
}

WeightFiber
compressWeightRow(const DenseMatrix<std::int8_t>& weights, std::size_t row)
{
    WeightFiber fiber;
    fiber.mask = Bitmask(weights.cols());
    for (std::size_t c = 0; c < weights.cols(); ++c) {
        const std::int8_t v = weights(row, c);
        if (v != 0) {
            fiber.mask.set(c);
            fiber.values.push_back(v);
        }
    }
    return fiber;
}

DenseMatrix<std::int8_t>
decompressWeightColumns(const std::vector<WeightFiber>& fibers,
                        std::size_t rows)
{
    DenseMatrix<std::int8_t> out(rows, fibers.size(), 0);
    for (std::size_t c = 0; c < fibers.size(); ++c) {
        std::size_t next = 0;
        fibers[c].mask.forEachSet([&](std::size_t r) {
            out(r, c) = static_cast<std::int8_t>(fibers[c].values[next++]);
        });
    }
    return out;
}

std::size_t
spikeFiberBytes(const std::vector<SpikeFiber>& fibers, int timesteps)
{
    std::size_t bytes = 0;
    for (const auto& fiber : fibers)
        bytes += fiber.storageBytes(timesteps);
    return bytes;
}

double
compressionEfficiency(const SpikeTensor& spikes)
{
    // Spike bits carried per coordinate-overhead bit. The FTP format
    // spends exactly one bitmask bit per neuron; Fig. 8's example row
    // (5 spikes over a 4-neuron row) yields 125%.
    const std::size_t mask_bits = spikes.rows() * spikes.cols();
    if (mask_bits == 0)
        return 0.0;
    return static_cast<double>(spikes.countSpikes()) /
           static_cast<double>(mask_bits);
}

} // namespace loas
