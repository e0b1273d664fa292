/**
 * @file
 * Converters between dense tensors and compressed fibers, plus the
 * aggregate footprint helpers the traffic models use.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "tensor/dense_matrix.hh"
#include "tensor/fiber.hh"
#include "tensor/spike_tensor.hh"

namespace loas {

/** Compress one row of the spike tensor into an FTP-friendly fiber. */
SpikeFiber compressSpikeRow(const SpikeTensor& spikes, std::size_t row);

/** Compress every row of the spike tensor. */
std::vector<SpikeFiber> compressSpikeRows(const SpikeTensor& spikes);

/** Reconstruct a spike tensor from row fibers (round-trip testing). */
SpikeTensor decompressSpikeRows(const std::vector<SpikeFiber>& fibers,
                                std::size_t cols, int timesteps);

/** Compress one column of B by a strided walk (the test oracle). */
WeightFiber compressWeightColumn(const DenseMatrix<std::int8_t>& weights,
                                 std::size_t col);

/** Compress every column of B in row-major passes, exactly reserved. */
std::vector<WeightFiber>
compressWeightColumns(const DenseMatrix<std::int8_t>& weights);

/** Compress one row of B into a weight fiber (Gustavson baselines). */
WeightFiber compressWeightRow(const DenseMatrix<std::int8_t>& weights,
                              std::size_t row);

/** Reconstruct B from column fibers (round-trip testing). */
DenseMatrix<std::int8_t>
decompressWeightColumns(const std::vector<WeightFiber>& fibers,
                        std::size_t rows);

/** Total storage of all spike fibers of A, in bytes. */
std::size_t spikeFiberBytes(const std::vector<SpikeFiber>& fibers,
                            int timesteps);

/**
 * Compression efficiency as defined in Section IV-A: raw spike bits that
 * carry information divided by stored bits (> 1 means the format beats
 * storing the raw train).
 */
double compressionEfficiency(const SpikeTensor& spikes);

} // namespace loas
