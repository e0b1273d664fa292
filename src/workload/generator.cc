#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace loas {

namespace {

/** Binomial pmf table for n trials with success probability p. */
std::vector<double>
binomialPmf(double p, int n)
{
    std::vector<double> pmf(static_cast<std::size_t>(n) + 1);
    const double q = 1.0 - p;
    // pmf[c] = C(n, c) p^c q^(n-c), built incrementally.
    double value = std::pow(q, n);
    pmf[0] = value;
    for (int c = 1; c <= n; ++c) {
        value *= (static_cast<double>(n - c + 1) / c) * (p / q);
        pmf[static_cast<std::size_t>(c)] = value;
    }
    return pmf;
}

/**
 * Sample one packed word with >= min_spikes bits set, each bit firing
 * with the probability whose Rng::bernoulliThreshold() is `fire`.
 */
TimeWord
sampleActiveWord(Rng& rng, std::uint64_t fire, int t, int min_spikes)
{
    for (int attempt = 0; attempt < 10000; ++attempt) {
        // No branch on a draw, and the spike count as it is drawn (a
        // portable build would call a library popcount).
        TimeWord w = 0;
        int spikes = 0;
        for (int bit = 0; bit < t; ++bit) {
            const bool fired = rng.bernoulliBelow(fire);
            w |= static_cast<TimeWord>(fired) << bit;
            spikes += fired;
        }
        if (spikes >= min_spikes)
            return w;
    }
    // Probability mass below min_spikes is overwhelming; force the
    // minimum pattern rather than looping forever.
    TimeWord w = 0;
    for (int bit = 0; bit < min_spikes; ++bit)
        w |= (TimeWord{1} << rng.uniformInt(static_cast<std::uint64_t>(t)));
    while (popcount64(w) < min_spikes)
        w |= (TimeWord{1} << rng.uniformInt(static_cast<std::uint64_t>(t)));
    return w;
}

std::int8_t
sampleNonzeroWeight(Rng& rng)
{
    static constexpr std::uint64_t kHalf = // bernoulliThreshold(0.5)
        std::uint64_t{1} << 52;
    const int magnitude = 1 + static_cast<int>(rng.uniformInt(127));
    return static_cast<std::int8_t>(rng.bernoulliBelow(kHalf) ? magnitude
                                                              : -magnitude);
}

/** Fill `weights` with nonzero weights at the given density. */
void
sampleWeights(Rng& rng, DenseMatrix<std::int8_t>& weights, double density)
{
    // Draw from a local copy: an int8 store may alias anything, so the
    // compiler would reload and store `rng`'s state around each one.
    Rng local = rng;
    const std::uint64_t keep = Rng::bernoulliThreshold(density);
    std::int8_t* w = weights.data().data();
    for (std::size_t i = 0; i < weights.rows() * weights.cols(); ++i)
        if (local.bernoulliBelow(keep))
            w[i] = sampleNonzeroWeight(local);
    rng = local;
}

} // namespace

double
truncatedBinomialMean(double p, int t, int min_spikes)
{
    if (p <= 0.0)
        return static_cast<double>(min_spikes);
    if (p >= 1.0)
        return static_cast<double>(t);
    const auto pmf = binomialPmf(p, t);
    double mass = 0.0;
    double mean = 0.0;
    for (int c = min_spikes; c <= t; ++c) {
        mass += pmf[static_cast<std::size_t>(c)];
        mean += c * pmf[static_cast<std::size_t>(c)];
    }
    if (mass <= 0.0)
        return static_cast<double>(min_spikes);
    return mean / mass;
}

double
solveFiringProbability(double target_mean, int t, int min_spikes)
{
    if (min_spikes > t)
        panic("min_spikes %d > timesteps %d", min_spikes, t);
    const double lo_mean = truncatedBinomialMean(1e-9, t, min_spikes);
    const double hi_mean = static_cast<double>(t);
    const double target = std::clamp(target_mean, lo_mean, hi_mean);
    if (target >= hi_mean - 1e-9)
        return 1.0;
    double lo = 1e-9;
    double hi = 1.0 - 1e-9;
    for (int iter = 0; iter < 100; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (truncatedBinomialMean(mid, t, min_spikes) < target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

namespace {

/** Sample one spike tensor off `rng` with the solved statistics. */
void
sampleSpikeTensor(Rng& rng, SpikeTensor& spikes, const LayerSpec& spec,
                  double silent, double p, int min_spikes)
{
    if (silent >= 1.0)
        return;
    const std::uint64_t quiet = Rng::bernoulliThreshold(silent);
    const std::uint64_t fire = Rng::bernoulliThreshold(p);
    // Draw from a local copy, which the compiler keeps in registers;
    // it cannot keep `rng` there across the row writes.
    Rng local = rng;
    for (std::size_t m = 0; m < spec.m; ++m) {
        TimeWord* const row = spikes.rowWords(m);
        for (std::size_t k = 0; k < spec.k; ++k)
            if (!local.bernoulliBelow(quiet))
                row[k] = sampleActiveWord(local, fire, spec.t, min_spikes);
    }
    rng = local;
}

} // namespace

LayerData
generateLayer(const LayerSpec& spec, std::uint64_t seed, bool ft,
              std::size_t batch)
{
    if (spec.t < 1 || spec.t > kMaxTimesteps)
        fatal("layer '%s': unsupported timestep count %d",
              spec.name.c_str(), spec.t);
    if (batch < 1)
        fatal("layer '%s': batch must be >= 1", spec.name.c_str());

    Rng rng(seed ^ 0x5bd1e995u);
    LayerData data{spec, SpikeTensor(spec.m, spec.k, spec.t),
                   DenseMatrix<std::int8_t>(spec.k, spec.n, 0),
                   {}};

    const double silent =
        std::clamp(ft ? spec.silent_ratio_ft : spec.silent_ratio, 0.0, 1.0);
    const int min_spikes = ft ? std::min(2, spec.t) : 1;
    const double d0 = 1.0 - spec.spike_sparsity;

    double p = 0.0;
    if (silent < 1.0) {
        const double mean_spikes =
            d0 * static_cast<double>(spec.t) / (1.0 - silent);
        p = solveFiringProbability(mean_spikes, spec.t, min_spikes);
    }

    sampleSpikeTensor(rng, data.spikes, spec, silent, p, min_spikes);

    sampleWeights(rng, data.weights, 1.0 - spec.weight_sparsity);

    // Extra batch inputs come off per-input streams derived from the
    // layer seed alone: input b is identical whatever the total batch
    // size, and input 0 + weights above never see the batch axis. The
    // mixing constant differs from generateNetwork's per-layer stride
    // so the input axis cannot alias the layer axis.
    data.extra_inputs.reserve(batch - 1);
    for (std::size_t b = 1; b < batch; ++b) {
        Rng input_rng((seed + 0xd1b54a32d192ed03ull * b) ^ 0x5bd1e995u);
        SpikeTensor input(spec.m, spec.k, spec.t);
        sampleSpikeTensor(input_rng, input, spec, silent, p, min_spikes);
        data.extra_inputs.push_back(std::move(input));
    }

    return data;
}

std::vector<LayerData>
generateNetwork(const NetworkSpec& net, std::uint64_t seed, bool ft,
                std::size_t batch)
{
    std::vector<LayerData> layers;
    layers.reserve(net.layers.size());
    for (std::size_t l = 0; l < net.layers.size(); ++l) {
        const std::uint64_t layer_seed =
            seed + 0x9e3779b97f4a7c15ull * (l + 1);
        layers.push_back(
            generateLayer(net.layers[l], layer_seed, ft, batch));
    }
    return layers;
}

AnnLayerData
generateAnnLayer(const LayerSpec& spec, std::uint64_t seed)
{
    Rng rng(seed ^ 0xcafef00du);
    AnnLayerData data{spec, DenseMatrix<std::int8_t>(spec.m, spec.k, 0),
                      DenseMatrix<std::int8_t>(spec.k, spec.n, 0)};
    const double act_density = 1.0 - spec.spike_sparsity;
    for (std::size_t m = 0; m < spec.m; ++m)
        for (std::size_t k = 0; k < spec.k; ++k)
            if (rng.bernoulli(act_density)) {
                // ReLU outputs: positive activations only.
                data.acts(m, k) =
                    static_cast<std::int8_t>(1 + rng.uniformInt(127));
            }
    sampleWeights(rng, data.weights, 1.0 - spec.weight_sparsity);
    return data;
}

} // namespace loas
