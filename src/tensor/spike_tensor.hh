/**
 * @file
 * Spike tensor A in U^{M x K x T}, stored temporally packed: the T spike
 * bits of each pre-synaptic neuron (m, k) live in one machine word, which
 * is exactly the memory layout the paper's FTP-friendly compression packs
 * into fibers (Fig. 8, "packed real data").
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/dense_matrix.hh"

namespace loas {

/** Packed spike bits of one neuron across all timesteps (bit t = spike). */
using TimeWord = std::uint32_t;

/** Maximum number of timesteps a TimeWord can hold. */
constexpr int kMaxTimesteps = 32;

/** M x K x T binary spike tensor, packed along the temporal dimension. */
class SpikeTensor
{
  public:
    SpikeTensor() : rows_(0), cols_(0), timesteps_(0) {}

    /** Create an all-zero tensor; t must be in [1, kMaxTimesteps]. */
    SpikeTensor(std::size_t rows, std::size_t cols, int timesteps);

    /**
     * Reset to an all-zero tensor of the given shape, reusing the word
     * storage when the shape already matches (the execute()-scratch
     * path of the simulators' lastOutput tensors).
     */
    void reset(std::size_t rows, std::size_t cols, int timesteps);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    int timesteps() const { return timesteps_; }

    /** Packed temporal word of neuron (r, c). */
    TimeWord word(std::size_t r, std::size_t c) const;

    /** Overwrite the packed temporal word of neuron (r, c). */
    void setWord(std::size_t r, std::size_t c, TimeWord w);

    /**
     * The cols() packed words of row r, for bulk writers (the workload
     * generator). Unlike setWord(), writes through the pointer are not
     * checked: each word must have no bit at or above timesteps().
     */
    TimeWord* rowWords(std::size_t r);

    /** The cols() packed words of row r, for bulk readers (the fiber
     *  compressors): one bounds check per row instead of one per word. */
    const TimeWord* rowWords(std::size_t r) const;

    /** Single spike bit at (r, c, t). */
    bool spike(std::size_t r, std::size_t c, int t) const;

    /** Set/clear the spike bit at (r, c, t). */
    void setSpike(std::size_t r, std::size_t c, int t, bool value = true);

    /** Total number of 1-spikes across all timesteps. */
    std::uint64_t countSpikes() const;

    /** Fraction of zero bits among all M*K*T bits ("origin sparsity"). */
    double originSparsity() const;

    /** Number of silent neurons (no spike at any timestep). */
    std::size_t silentCount() const;

    /** Fraction of silent neurons among the M*K neurons. */
    double silentRatio() const;

    /** Number of neurons firing exactly once across all timesteps. */
    std::size_t singleSpikeCount() const;

    /** Uncompressed footprint of the tensor in bytes (M*K*T bits). */
    std::size_t denseBytes() const;

    /** Uncompressed footprint of one timestep slice in bytes. */
    std::size_t denseBytesPerTimestep() const;

    bool operator==(const SpikeTensor&) const = default;

  private:
    std::size_t rows_;
    std::size_t cols_;
    int timesteps_;
    DenseMatrix<TimeWord> words_;
};

} // namespace loas
