#include "train/mlp_snn.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"

namespace loas {

namespace {

/** Kaiming-style initialization. */
void
initWeights(DenseMatrix<float>& w, Rng& rng)
{
    const double scale = std::sqrt(2.0 / static_cast<double>(w.rows()));
    for (auto& v : w.data())
        v = static_cast<float>(rng.normal(0.0, scale));
}

} // namespace

/** Per-sample forward record needed by BPTT. */
struct MlpSnn::Trace
{
    // [t][neuron]
    std::vector<std::vector<float>> x1, x2; // membrane inputs X
    std::vector<std::vector<float>> s1, s2; // spikes
    std::vector<float> logits;
};

MlpSnn::MlpSnn(const MlpSnnConfig& config, std::uint64_t seed)
    : config_(config),
      w1_(config.inputs, config.hidden),
      w2_(config.hidden, config.hidden),
      w3_(config.hidden, static_cast<std::size_t>(config.classes)),
      m1_(config.inputs, config.hidden, 0.0f),
      m2_(config.hidden, config.hidden, 0.0f),
      m3_(config.hidden, static_cast<std::size_t>(config.classes), 0.0f),
      g1_(config.inputs, config.hidden, 0.0f),
      g2_(config.hidden, config.hidden, 0.0f),
      g3_(config.hidden, static_cast<std::size_t>(config.classes), 0.0f),
      mask1_(config.inputs * config.hidden, 1),
      mask2_(config.hidden * config.hidden, 1),
      mask3_(config.hidden * static_cast<std::size_t>(config.classes), 1),
      neuron_mask_(config.hidden, 1),
      epoch_seed_(seed)
{
    Rng rng(seed);
    initWeights(w1_, rng);
    initWeights(w2_, rng);
    initWeights(w3_, rng);
    w1_init_ = w1_;
    w2_init_ = w2_;
    w3_init_ = w3_;
}

void
MlpSnn::forwardSample(const float* x, Trace& trace) const
{
    const std::size_t hid = config_.hidden;
    const auto classes = static_cast<std::size_t>(config_.classes);
    const int timesteps = config_.timesteps;

    trace.x1.assign(static_cast<std::size_t>(timesteps),
                    std::vector<float>(hid, 0.0f));
    trace.x2 = trace.x1;
    trace.s1 = trace.x1;
    trace.s2 = trace.x1;
    trace.logits.assign(classes, 0.0f);

    // Direct coding: the input current of layer 1 is the same every
    // timestep, so compute it once.
    std::vector<float> i1(hid, 0.0f);
    for (std::size_t i = 0; i < config_.inputs; ++i) {
        const float xi = x[i];
        if (xi == 0.0f)
            continue;
        const float* row = &w1_(i, 0);
        for (std::size_t h = 0; h < hid; ++h)
            i1[h] += xi * row[h];
    }

    std::vector<float> u1(hid, 0.0f), u2(hid, 0.0f);
    for (int t = 0; t < timesteps; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        auto& x1 = trace.x1[ts];
        auto& s1 = trace.s1[ts];
        for (std::size_t h = 0; h < hid; ++h) {
            x1[h] = i1[h] + u1[h];
            const bool fire =
                neuron_mask_[h] != 0 && x1[h] > config_.v_th;
            s1[h] = fire ? 1.0f : 0.0f;
            u1[h] = fire ? 0.0f : config_.tau * x1[h];
            if (neuron_mask_[h] == 0)
                u1[h] = 0.0f; // dead neuron
        }

        auto& x2 = trace.x2[ts];
        auto& s2 = trace.s2[ts];
        std::vector<float> i2(hid, 0.0f);
        for (std::size_t h = 0; h < hid; ++h) {
            if (s1[h] == 0.0f)
                continue;
            const float* row = &w2_(h, 0);
            for (std::size_t j = 0; j < hid; ++j)
                i2[j] += row[j];
        }
        for (std::size_t j = 0; j < hid; ++j) {
            x2[j] = i2[j] + u2[j];
            const bool fire = x2[j] > config_.v_th;
            s2[j] = fire ? 1.0f : 0.0f;
            u2[j] = fire ? 0.0f : config_.tau * x2[j];
        }

        for (std::size_t j = 0; j < hid; ++j) {
            if (s2[j] == 0.0f)
                continue;
            const float* row = &w3_(j, 0);
            for (std::size_t c = 0; c < classes; ++c)
                trace.logits[c] += row[c];
        }
    }
    for (auto& logit : trace.logits)
        logit /= static_cast<float>(timesteps);
}

void
MlpSnn::backwardSample(const float* x, int label, const Trace& trace)
{
    const std::size_t hid = config_.hidden;
    const auto classes = static_cast<std::size_t>(config_.classes);
    const int timesteps = config_.timesteps;
    const float alpha = config_.surrogate_alpha;

    // Softmax cross-entropy gradient on the mean logits.
    std::vector<float> dlogits(classes);
    {
        float max_logit = trace.logits[0];
        for (const auto v : trace.logits)
            max_logit = std::max(max_logit, v);
        float denom = 0.0f;
        for (std::size_t c = 0; c < classes; ++c) {
            dlogits[c] = std::exp(trace.logits[c] - max_logit);
            denom += dlogits[c];
        }
        for (std::size_t c = 0; c < classes; ++c)
            dlogits[c] /= denom;
        dlogits[static_cast<std::size_t>(label)] -= 1.0f;
    }

    // Surrogate derivative of the Heaviside spike function.
    auto surrogate = [&](float v) {
        const float z = alpha * (v - config_.v_th);
        return alpha / ((1.0f + std::fabs(z)) * (1.0f + std::fabs(z)));
    };

    // dL/dS3 per timestep is W3 dlogits / T (same every t).
    std::vector<float> ds2_static(hid, 0.0f);
    for (std::size_t j = 0; j < hid; ++j) {
        float acc = 0.0f;
        const float* row = &w3_(j, 0);
        for (std::size_t c = 0; c < classes; ++c)
            acc += row[c] * dlogits[c];
        ds2_static[j] = acc / static_cast<float>(timesteps);
    }

    std::vector<float> du2(hid, 0.0f), du1(hid, 0.0f);
    for (int t = timesteps - 1; t >= 0; --t) {
        const auto ts = static_cast<std::size_t>(t);
        const auto& s1 = trace.s1[ts];
        const auto& s2 = trace.s2[ts];
        const auto& x2 = trace.x2[ts];
        const auto& x1 = trace.x1[ts];

        // dW3 += s2 (x) dlogits / T.
        for (std::size_t j = 0; j < hid; ++j) {
            if (s2[j] == 0.0f)
                continue;
            float* grow = &g3_(j, 0);
            for (std::size_t c = 0; c < classes; ++c)
                grow[c] +=
                    dlogits[c] / static_cast<float>(timesteps);
        }

        // LIF backward, layer 2. The reset path through the spike is
        // detached (standard surrogate-gradient practice).
        std::vector<float> gx2(hid);
        for (std::size_t j = 0; j < hid; ++j) {
            const float ds = ds2_static[j] + 0.0f;
            const float leak_path =
                du2[j] * (s2[j] != 0.0f ? 0.0f : config_.tau);
            gx2[j] = ds * surrogate(x2[j]) + leak_path;
            du2[j] = gx2[j]; // X2[t] = I2[t] + U2[t-1]
        }

        // dW2 += s1 (x) gx2; dS1 = W2 gx2.
        std::vector<float> ds1(hid, 0.0f);
        for (std::size_t h = 0; h < hid; ++h) {
            const float* row = &w2_(h, 0);
            float acc = 0.0f;
            for (std::size_t j = 0; j < hid; ++j)
                acc += row[j] * gx2[j];
            ds1[h] = acc;
            if (s1[h] != 0.0f) {
                float* grow = &g2_(h, 0);
                for (std::size_t j = 0; j < hid; ++j)
                    grow[j] += gx2[j];
            }
        }

        // LIF backward, layer 1; masked neurons pass no gradient.
        std::vector<float> gx1(hid);
        for (std::size_t h = 0; h < hid; ++h) {
            if (neuron_mask_[h] == 0) {
                gx1[h] = 0.0f;
                du1[h] = 0.0f;
                continue;
            }
            const float leak_path =
                du1[h] * (s1[h] != 0.0f ? 0.0f : config_.tau);
            gx1[h] = ds1[h] * surrogate(x1[h]) + leak_path;
            du1[h] = gx1[h];
        }

        // dW1 += x (x) gx1.
        for (std::size_t i = 0; i < config_.inputs; ++i) {
            const float xi = x[i];
            if (xi == 0.0f)
                continue;
            float* grow = &g1_(i, 0);
            for (std::size_t h = 0; h < hid; ++h)
                grow[h] += xi * gx1[h];
        }
    }
}

void
MlpSnn::applyMasksAndStep()
{
    auto step = [&](DenseMatrix<float>& w, DenseMatrix<float>& m,
                    DenseMatrix<float>& g,
                    const std::vector<std::uint8_t>& mask) {
        auto& wd = w.data();
        auto& md = m.data();
        auto& gd = g.data();
        for (std::size_t i = 0; i < wd.size(); ++i) {
            if (!mask[i]) {
                wd[i] = 0.0f;
                md[i] = 0.0f;
                gd[i] = 0.0f;
                continue;
            }
            md[i] = config_.momentum * md[i] + gd[i];
            wd[i] -= config_.lr * md[i];
            gd[i] = 0.0f;
        }
    };
    step(w1_, m1_, g1_, mask1_);
    step(w2_, m2_, g2_, mask2_);
    step(w3_, m3_, g3_, mask3_);
}

float
MlpSnn::trainEpoch(const Dataset& data)
{
    Rng rng(epoch_seed_++);
    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(i)]);

    Trace trace;
    float loss_sum = 0.0f;
    for (const auto s : order) {
        const float* x = &data.x(s, 0);
        forwardSample(x, trace);

        // Cross-entropy loss for reporting.
        float max_logit = trace.logits[0];
        for (const auto v : trace.logits)
            max_logit = std::max(max_logit, v);
        float denom = 0.0f;
        for (const auto v : trace.logits)
            denom += std::exp(v - max_logit);
        loss_sum -= trace.logits[static_cast<std::size_t>(data.y[s])] -
                    max_logit - std::log(denom);

        backwardSample(x, data.y[s], trace);
        applyMasksAndStep();
    }
    return loss_sum / static_cast<float>(data.size());
}

double
MlpSnn::accuracy(const Dataset& data) const
{
    Trace trace;
    std::size_t correct = 0;
    for (std::size_t s = 0; s < data.size(); ++s) {
        forwardSample(&data.x(s, 0), trace);
        const auto best = std::max_element(trace.logits.begin(),
                                           trace.logits.end());
        if (static_cast<int>(best - trace.logits.begin()) == data.y[s])
            ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(data.size());
}

void
MlpSnn::pruneToSparsity(double target_sparsity)
{
    std::vector<float> magnitudes;
    auto collect = [&](const DenseMatrix<float>& w,
                       const std::vector<std::uint8_t>& mask) {
        for (std::size_t i = 0; i < w.data().size(); ++i)
            if (mask[i])
                magnitudes.push_back(std::fabs(w.data()[i]));
    };
    collect(w1_, mask1_);
    collect(w2_, mask2_);
    collect(w3_, mask3_);

    const std::size_t total =
        mask1_.size() + mask2_.size() + mask3_.size();
    const auto target_pruned = static_cast<std::size_t>(
        target_sparsity * static_cast<double>(total));
    const std::size_t already_pruned = total - magnitudes.size();
    if (target_pruned <= already_pruned)
        return;
    const std::size_t to_prune = target_pruned - already_pruned;
    if (to_prune >= magnitudes.size())
        fatal("pruneToSparsity(%.2f) would remove every weight",
              target_sparsity);

    std::nth_element(magnitudes.begin(),
                     magnitudes.begin() +
                         static_cast<std::ptrdiff_t>(to_prune),
                     magnitudes.end());
    const float threshold =
        magnitudes[to_prune];

    auto apply = [&](DenseMatrix<float>& w,
                     std::vector<std::uint8_t>& mask) {
        for (std::size_t i = 0; i < w.data().size(); ++i) {
            if (mask[i] && std::fabs(w.data()[i]) < threshold) {
                mask[i] = 0;
                w.data()[i] = 0.0f;
            }
        }
    };
    apply(w1_, mask1_);
    apply(w2_, mask2_);
    apply(w3_, mask3_);
}

void
MlpSnn::rewindWeights()
{
    auto rewind = [&](DenseMatrix<float>& w,
                      const DenseMatrix<float>& init,
                      DenseMatrix<float>& m,
                      const std::vector<std::uint8_t>& mask) {
        for (std::size_t i = 0; i < w.data().size(); ++i) {
            w.data()[i] = mask[i] ? init.data()[i] : 0.0f;
            m.data()[i] = 0.0f;
        }
    };
    rewind(w1_, w1_init_, m1_, mask1_);
    rewind(w2_, w2_init_, m2_, mask2_);
    rewind(w3_, w3_init_, m3_, mask3_);
}

double
MlpSnn::weightSparsity() const
{
    std::size_t pruned = 0;
    const std::size_t total =
        mask1_.size() + mask2_.size() + mask3_.size();
    for (const auto m : mask1_)
        pruned += m == 0;
    for (const auto m : mask2_)
        pruned += m == 0;
    for (const auto m : mask3_)
        pruned += m == 0;
    return static_cast<double>(pruned) / static_cast<double>(total);
}

std::size_t
MlpSnn::maskLowActivityHidden(const Dataset& calib, int max_spikes,
                              double tolerance)
{
    Trace trace;
    std::vector<std::size_t> active_samples(config_.hidden, 0);
    for (std::size_t s = 0; s < calib.size(); ++s) {
        forwardSample(&calib.x(s, 0), trace);
        for (std::size_t h = 0; h < config_.hidden; ++h) {
            int count = 0;
            for (int t = 0; t < config_.timesteps; ++t)
                count += trace.s1[static_cast<std::size_t>(t)][h] != 0.0f;
            if (count > max_spikes)
                ++active_samples[h];
        }
    }
    const auto budget = static_cast<std::size_t>(
        tolerance * static_cast<double>(calib.size()));
    std::size_t masked = 0;
    for (std::size_t h = 0; h < config_.hidden; ++h) {
        if (neuron_mask_[h] && active_samples[h] <= budget) {
            neuron_mask_[h] = 0;
            ++masked;
        }
    }
    return masked;
}

SpikeActivityStats
MlpSnn::hiddenActivity(const Dataset& data) const
{
    Trace trace;
    std::uint64_t spikes = 0;
    std::uint64_t silent = 0;
    std::uint64_t single = 0;
    const std::uint64_t neurons =
        static_cast<std::uint64_t>(data.size()) * config_.hidden;
    for (std::size_t s = 0; s < data.size(); ++s) {
        forwardSample(&data.x(s, 0), trace);
        for (std::size_t h = 0; h < config_.hidden; ++h) {
            int count = 0;
            for (int t = 0; t < config_.timesteps; ++t)
                count += trace.s1[static_cast<std::size_t>(t)][h] != 0.0f;
            spikes += static_cast<std::uint64_t>(count);
            silent += count == 0;
            single += count == 1;
        }
    }
    SpikeActivityStats stats;
    stats.spike_sparsity =
        1.0 - static_cast<double>(spikes) /
                  static_cast<double>(neurons * config_.timesteps);
    stats.silent_ratio =
        static_cast<double>(silent) / static_cast<double>(neurons);
    stats.single_spike_ratio =
        static_cast<double>(single) / static_cast<double>(neurons);
    return stats;
}

SpikeTensor
MlpSnn::exportHiddenSpikes(const Dataset& data,
                           std::size_t max_samples) const
{
    const std::size_t samples = std::min(max_samples, data.size());
    SpikeTensor spikes(samples, config_.hidden, config_.timesteps);
    Trace trace;
    for (std::size_t s = 0; s < samples; ++s) {
        forwardSample(&data.x(s, 0), trace);
        for (int t = 0; t < config_.timesteps; ++t)
            for (std::size_t h = 0; h < config_.hidden; ++h)
                if (trace.s1[static_cast<std::size_t>(t)][h] != 0.0f)
                    spikes.setSpike(s, h, t);
    }
    return spikes;
}

DenseMatrix<std::int8_t>
MlpSnn::exportQuantizedW2() const
{
    float max_abs = 0.0f;
    for (const auto v : w2_.data())
        max_abs = std::max(max_abs, std::fabs(v));
    DenseMatrix<std::int8_t> q(w2_.rows(), w2_.cols(), 0);
    if (max_abs == 0.0f)
        return q;
    const float scale = 127.0f / max_abs;
    for (std::size_t r = 0; r < w2_.rows(); ++r)
        for (std::size_t c = 0; c < w2_.cols(); ++c) {
            q(r, c) = static_cast<std::int8_t>(
                std::lround(w2_(r, c) * scale));
        }
    return q;
}

} // namespace loas
