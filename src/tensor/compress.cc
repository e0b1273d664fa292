#include "tensor/compress.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace loas {

namespace {

/**
 * Compress `n` contiguous entries into a mask of the non-zero positions
 * and their values in position order, reserved to the exact count. One
 * counting pass and one fill pass, both sequential over `src`.
 */
template <typename Value, typename Entry>
void
compressRun(const Entry* src, std::size_t n, Bitmask& mask,
            std::vector<Value>& values)
{
    constexpr std::size_t kBits = Bitmask::kWordBits;
    std::size_t nnz = 0;
    for (std::size_t i = 0; i < n; ++i)
        nnz += src[i] != 0 ? 1 : 0;
    std::vector<std::uint64_t> words(ceilDiv(n, kBits), 0);
    values.reserve(nnz);
    for (std::size_t i = 0; i < n; ++i)
        if (src[i] != 0) {
            words[i / kBits] |= 1ull << (i % kBits);
            values.push_back(src[i]);
        }
    mask = Bitmask(n, std::move(words));
}

} // namespace

SpikeFiber
compressSpikeRow(const SpikeTensor& spikes, std::size_t row)
{
    SpikeFiber fiber;
    compressRun(spikes.rowWords(row), spikes.cols(), fiber.mask,
                fiber.values);
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
    // Row-major, the order B is stored in: count every column's
    // non-zeros, reserve each fiber exactly, then append row by row.
    // A column's values land in row order, as compressWeightColumn's
    // walk down the column emits them.
    constexpr std::size_t kBits = Bitmask::kWordBits;
    const std::size_t rows = weights.rows();
    const std::size_t cols = weights.cols();
    const std::int8_t* const data = weights.data().data();
    std::vector<std::size_t> nnz(cols, 0);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            nnz[c] += data[r * cols + c] != 0 ? 1 : 0;

    std::vector<std::vector<std::uint64_t>> words(cols);
    std::vector<WeightFiber> fibers(cols);
    for (std::size_t c = 0; c < cols; ++c) {
        words[c].assign(ceilDiv(rows, kBits), 0);
        fibers[c].values.reserve(nnz[c]);
    }
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t bit = 1ull << (r % kBits);
        for (std::size_t c = 0; c < cols; ++c) {
            const std::int8_t v = data[r * cols + c];
            if (v != 0) {
                words[c][r / kBits] |= bit;
                fibers[c].values.push_back(v);
            }
        }
    }
    for (std::size_t c = 0; c < cols; ++c)
        fibers[c].mask = Bitmask(rows, std::move(words[c]));
    return fibers;
}

WeightFiber
compressWeightRow(const DenseMatrix<std::int8_t>& weights, std::size_t row)
{
    if (row >= weights.rows())
        panic("compressWeightRow: row %zu of %zu", row, weights.rows());
    WeightFiber fiber;
    compressRun(weights.data().data() + row * weights.cols(),
                weights.cols(), fiber.mask, fiber.values);
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
