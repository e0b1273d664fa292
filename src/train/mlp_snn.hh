/**
 * @file
 * Training substrate: a direct-coded MLP SNN trained with
 * backpropagation-through-time and a surrogate gradient (Section II-A2
 * of the paper), with lottery-ticket-style iterative magnitude pruning
 * (train, prune, rewind) and the paper's fine-tuned preprocessing
 * (mask low-activity pre-synaptic neurons, then fine-tune).
 *
 * Architecture: input -> Linear -> LIF -> Linear -> LIF -> Linear,
 * with the analog input presented at every timestep (direct coding)
 * and the output logits accumulated across timesteps.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "tensor/dense_matrix.hh"
#include "tensor/spike_tensor.hh"
#include "train/dataset.hh"

namespace loas {

/** Hyper-parameters of the MLP SNN. */
struct MlpSnnConfig
{
    std::size_t inputs = 32;
    std::size_t hidden = 96;
    int classes = 8;
    int timesteps = 4;
    float v_th = 1.0f;
    float tau = 0.5f;            // membrane leak
    float surrogate_alpha = 4.0f; // surrogate-gradient sharpness
    float lr = 0.02f;
    float momentum = 0.9f;
};

/** Firing statistics of the first hidden spike layer. */
struct SpikeActivityStats
{
    double spike_sparsity = 0.0;
    double silent_ratio = 0.0;
    double single_spike_ratio = 0.0;
};

/** Trainable two-hidden-layer spiking MLP. */
class MlpSnn
{
  public:
    MlpSnn(const MlpSnnConfig& config, std::uint64_t seed);

    /** One epoch of per-sample SGD; returns the mean loss. */
    float trainEpoch(const Dataset& data);

    /** Classification accuracy on a dataset. */
    double accuracy(const Dataset& data) const;

    /**
     * Lottery-ticket step: raise the global weight sparsity to
     * `target_sparsity` by magnitude, masking the smallest weights.
     */
    void pruneToSparsity(double target_sparsity);

    /** Rewind surviving weights to their initialization (LTH). */
    void rewindWeights();

    /** Fraction of weights currently masked out. */
    double weightSparsity() const;

    /**
     * Fine-tuned preprocessing: permanently silence hidden (layer-1)
     * neurons that fire more than `max_spikes` times across the
     * timesteps on at most a `tolerance` fraction of calibration
     * samples (the paper masks neurons "with only one output spike
     * throughout all timesteps"). Returns how many were masked.
     */
    std::size_t maskLowActivityHidden(const Dataset& calib,
                                      int max_spikes = 1,
                                      double tolerance = 0.05);

    /** Firing statistics of the hidden spike layer on a dataset. */
    SpikeActivityStats hiddenActivity(const Dataset& data) const;

    /**
     * Export the layer-2 input spikes of the first `max_samples`
     * samples as an M x hidden x T spike tensor: the bridge from the
     * training substrate to the accelerator simulators.
     */
    SpikeTensor exportHiddenSpikes(const Dataset& data,
                                   std::size_t max_samples) const;

    /** Export layer-2 weights quantized to int8. */
    DenseMatrix<std::int8_t> exportQuantizedW2() const;

    const MlpSnnConfig& config() const { return config_; }

  private:
    struct Trace; // per-sample forward record for BPTT

    void forwardSample(const float* x, Trace& trace) const;
    void backwardSample(const float* x, int label, const Trace& trace);
    void applyMasksAndStep();

    MlpSnnConfig config_;

    // Weights, their initial snapshot (for rewind), prune masks and
    // momentum buffers. w1: in x hid, w2: hid x hid, w3: hid x classes.
    DenseMatrix<float> w1_, w2_, w3_;
    DenseMatrix<float> w1_init_, w2_init_, w3_init_;
    DenseMatrix<float> m1_, m2_, m3_; // momentum
    DenseMatrix<float> g1_, g2_, g3_; // gradient scratch
    std::vector<std::uint8_t> mask1_, mask2_, mask3_;

    std::vector<std::uint8_t> neuron_mask_; // layer-1 neurons kept
    std::uint64_t epoch_seed_;
};

} // namespace loas
