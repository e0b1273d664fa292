#include "workload/artifact_io.hh"

#include <array>
#include <iterator>
#include <memory>
#include <utility>

#include "baselines/gamma.hh"
#include "baselines/gospa.hh"
#include "baselines/sparten.hh"
#include "baselines/systolic.hh"
#include "core/loas_sim.hh"

namespace loas {
namespace artio {

namespace {

void
putBitmask(Writer& out, const Bitmask& mask)
{
    out.u64(mask.size());
    out.vec(mask.words());
}

bool
getBitmask(Reader& in, Bitmask& mask)
{
    std::uint64_t size = 0;
    std::vector<std::uint64_t> words;
    if (!in.u64(size) || !in.vec(words))
        return false;
    // Validate what Bitmask's reconstruction panics on: a corrupt file
    // must read as a cache miss, never abort the process.
    const std::size_t bits = static_cast<std::size_t>(size);
    if (words.size() != (bits + Bitmask::kWordBits - 1) /
                            Bitmask::kWordBits)
        return false;
    const std::size_t tail = bits % Bitmask::kWordBits;
    if (tail != 0 && (words.back() >> tail) != 0)
        return false;
    mask = Bitmask(bits, std::move(words));
    return true;
}

/** A stored rank table valid for `mask`, rejected like any corruption. */
bool
getRanked(Reader& in, const Bitmask& mask, RankedBitmask& ranked)
{
    std::vector<std::uint32_t> prefix;
    if (!in.vec(prefix))
        return false;
    if (prefix.size() != mask.words().size() + 1 ||
        prefix.empty() || prefix.back() != mask.popcount())
        return false;
    ranked = RankedBitmask(mask, std::move(prefix));
    return true;
}

/** A compiled fiber set (CompiledWeightFibers / CompiledSpikeFibers):
 *  per fiber its mask, values and rank table, then the offset tables. */
template <typename Fibers>
void
putFibers(Writer& out, const Fibers& fibers)
{
    out.u64(fibers.fibers.size());
    for (std::size_t i = 0; i < fibers.fibers.size(); ++i) {
        putBitmask(out, fibers.fibers[i].mask);
        out.vec(fibers.fibers[i].values);
        out.vec(fibers.ranked[i].prefixTable());
    }
    out.vec(fibers.meta_off);
    out.vec(fibers.val_off);
}

template <typename Fibers>
bool
getFibers(Reader& in, Fibers& fibers)
{
    std::uint64_t count = 0;
    if (!in.u64(count))
        return false;
    fibers.fibers.resize(static_cast<std::size_t>(count));
    fibers.ranked.resize(fibers.fibers.size());
    for (std::size_t i = 0; i < fibers.fibers.size(); ++i) {
        if (!getBitmask(in, fibers.fibers[i].mask) ||
            !in.vec(fibers.fibers[i].values) ||
            !getRanked(in, fibers.fibers[i].mask, fibers.ranked[i]))
            return false;
    }
    if (!in.vec(fibers.meta_off) || !in.vec(fibers.val_off))
        return false;
    return fibers.meta_off.size() == fibers.fibers.size() + 1 &&
           fibers.val_off.size() == fibers.fibers.size() + 1;
}

// --- Per-family artifact payloads -----------------------------------

// Every spike-side member is stored per batch input (count-prefixed);
// the weight-side operand is stored exactly once per layer.

void
putLoas(Writer& out, const LoasCompiled& art)
{
    out.u64(art.a.size());
    for (const auto& a : art.a)
        putFibers(out, a);
    putFibers(out, art.b);
}

std::shared_ptr<const CompiledArtifact>
getLoas(Reader& in)
{
    auto art = std::make_shared<LoasCompiled>();
    std::uint64_t batch = 0;
    if (!in.u64(batch) || batch == 0)
        return nullptr;
    art->a.resize(static_cast<std::size_t>(batch));
    for (auto& a : art->a)
        if (!getFibers(in, a))
            return nullptr;
    if (!getFibers(in, art->b))
        return nullptr;
    return art;
}

void
putSparten(Writer& out, const SpartenCompiled& art)
{
    putFibers(out, art.b);
    // Format v5: per input the packed spike fibers (the one spike
    // view of both datapaths), then per input the dense counts.
    out.u64(art.packed.size());
    for (const auto& packed : art.packed)
        putFibers(out, packed);
    for (const auto& counts : art.dense_nnz)
        out.vec(counts);
}

std::shared_ptr<const CompiledArtifact>
getSparten(Reader& in)
{
    auto art = std::make_shared<SpartenCompiled>();
    std::uint64_t batch = 0;
    if (!getFibers(in, art->b) || !in.u64(batch) || batch == 0)
        return nullptr;
    art->packed.resize(static_cast<std::size_t>(batch));
    for (auto& packed : art->packed)
        if (!getFibers(in, packed))
            return nullptr;
    art->dense_nnz.resize(static_cast<std::size_t>(batch));
    for (std::size_t b = 0; b < art->dense_nnz.size(); ++b) {
        if (!in.vec(art->dense_nnz[b]) ||
            art->dense_nnz[b].size() != art->packed[b].fibers.size())
            return nullptr;
    }
    return art;
}

void
putGospa(Writer& out, const GospaCompiled& art)
{
    putFibers(out, art.b);
    out.u64(art.col_spikes.size());
    for (std::size_t b = 0; b < art.col_spikes.size(); ++b) {
        out.vec(art.col_spikes[b]);
        out.u64(art.total_spikes[b]);
    }
}

std::shared_ptr<const CompiledArtifact>
getGospa(Reader& in)
{
    auto art = std::make_shared<GospaCompiled>();
    std::uint64_t batch = 0;
    if (!getFibers(in, art->b) || !in.u64(batch) || batch == 0)
        return nullptr;
    art->col_spikes.resize(static_cast<std::size_t>(batch));
    art->total_spikes.resize(static_cast<std::size_t>(batch));
    for (std::size_t b = 0; b < art->col_spikes.size(); ++b)
        if (!in.vec(art->col_spikes[b]) || !in.u64(art->total_spikes[b]))
            return nullptr;
    return art;
}

void
putGamma(Writer& out, const GammaCompiled& art)
{
    putFibers(out, art.b);
    out.f64(art.weight_density);
    out.u64(art.cols.size());
    for (std::size_t b = 0; b < art.cols.size(); ++b) {
        out.u64(art.total_spikes[b]);
        out.vec(art.cols[b]);
        out.vec(art.ptr[b]);
    }
}

std::shared_ptr<const CompiledArtifact>
getGamma(Reader& in)
{
    auto art = std::make_shared<GammaCompiled>();
    std::uint64_t batch = 0;
    if (!getFibers(in, art->b) || !in.f64(art->weight_density) ||
        !in.u64(batch) || batch == 0)
        return nullptr;
    art->total_spikes.resize(static_cast<std::size_t>(batch));
    art->cols.resize(static_cast<std::size_t>(batch));
    art->ptr.resize(static_cast<std::size_t>(batch));
    for (std::size_t b = 0; b < art->cols.size(); ++b)
        if (!in.u64(art->total_spikes[b]) || !in.vec(art->cols[b]) ||
            !in.vec(art->ptr[b]))
            return nullptr;
    return art;
}

// Format v4: the one-shot ANN entry points folded into the two-phase
// API, so their artifacts ride the disk cache like any SNN layer.

void
putSpartenAnn(Writer& out, const SpartenAnnCompiled& art)
{
    putFibers(out, art.a);
    putFibers(out, art.b);
}

std::shared_ptr<const CompiledArtifact>
getSpartenAnn(Reader& in)
{
    auto art = std::make_shared<SpartenAnnCompiled>();
    if (!getFibers(in, art->a) || !getFibers(in, art->b))
        return nullptr;
    return art;
}

void
putGammaAnn(Writer& out, const GammaAnnCompiled& art)
{
    putFibers(out, art.b);
    out.f64(art.weight_density);
    out.u64(art.nnz_acts);
    out.vec(art.cols);
    out.vec(art.ptr);
}

std::shared_ptr<const CompiledArtifact>
getGammaAnn(Reader& in)
{
    auto art = std::make_shared<GammaAnnCompiled>();
    if (!getFibers(in, art->b) || !in.f64(art->weight_density) ||
        !in.u64(art->nnz_acts) || !in.vec(art->cols) ||
        !in.vec(art->ptr))
        return nullptr;
    // The CSR must be well-formed: executeAnn() walks it unchecked.
    if (art->ptr.empty() || art->ptr.front() != 0 ||
        art->ptr.back() != art->cols.size())
        return nullptr;
    for (std::size_t r = 1; r < art->ptr.size(); ++r)
        if (art->ptr[r] < art->ptr[r - 1])
            return nullptr;
    return art;
}

void
putSystolic(Writer& out, const SystolicCompiled& art)
{
    out.u64(art.spikes.size());
    for (std::size_t b = 0; b < art.spikes.size(); ++b) {
        out.u64(art.spikes[b]);
        out.u64(art.max_spikes_per_t[b]);
    }
}

std::shared_ptr<const CompiledArtifact>
getSystolic(Reader& in)
{
    auto art = std::make_shared<SystolicCompiled>();
    std::uint64_t batch = 0;
    if (!in.u64(batch) || batch == 0)
        return nullptr;
    art->spikes.resize(static_cast<std::size_t>(batch));
    art->max_spikes_per_t.resize(static_cast<std::size_t>(batch));
    for (std::size_t b = 0; b < art->spikes.size(); ++b)
        if (!in.u64(art->spikes[b]) ||
            !in.u64(art->max_spikes_per_t[b]))
            return nullptr;
    return art;
}

void
putSpec(Writer& out, const LayerSpec& spec)
{
    out.str(spec.name);
    out.i32(spec.t);
    out.u64(spec.m);
    out.u64(spec.n);
    out.u64(spec.k);
    out.f64(spec.spike_sparsity);
    out.f64(spec.silent_ratio);
    out.f64(spec.silent_ratio_ft);
    out.f64(spec.weight_sparsity);
}

bool
getSpec(Reader& in, LayerSpec& spec)
{
    std::uint64_t m = 0, n = 0, k = 0;
    const bool ok = in.str(spec.name) && in.i32(spec.t) && in.u64(m) &&
                    in.u64(n) && in.u64(k) &&
                    in.f64(spec.spike_sparsity) &&
                    in.f64(spec.silent_ratio) &&
                    in.f64(spec.silent_ratio_ft) &&
                    in.f64(spec.weight_sparsity);
    spec.m = static_cast<std::size_t>(m);
    spec.n = static_cast<std::size_t>(n);
    spec.k = static_cast<std::size_t>(k);
    return ok;
}

} // namespace

bool
serializeCompiledLayer(const CompiledLayer& layer, Writer& out)
{
    out.str(layer.family);
    putSpec(out, layer.spec);
    out.u64(layer.m);
    out.u64(layer.k);
    out.u64(layer.n);
    out.i32(layer.timesteps);
    out.u64(layer.batch);
    out.u64(layer.bytes);

    if (!layer.artifact)
        return false;
    if (layer.family == "loas")
        putLoas(out, static_cast<const LoasCompiled&>(*layer.artifact));
    else if (layer.family == "sparten-snn")
        putSparten(out,
                   static_cast<const SpartenCompiled&>(*layer.artifact));
    else if (layer.family == "gospa")
        putGospa(out,
                 static_cast<const GospaCompiled&>(*layer.artifact));
    else if (layer.family == "gamma")
        putGamma(out,
                 static_cast<const GammaCompiled&>(*layer.artifact));
    else if (layer.family == "systolic")
        putSystolic(
            out, static_cast<const SystolicCompiled&>(*layer.artifact));
    else if (layer.family == SpartenSim::kAnnFamily)
        putSpartenAnn(
            out,
            static_cast<const SpartenAnnCompiled&>(*layer.artifact));
    else if (layer.family == GammaSim::kAnnFamily)
        putGammaAnn(
            out, static_cast<const GammaAnnCompiled&>(*layer.artifact));
    else
        return false;
    return true;
}

bool
deserializeCompiledLayer(Reader& in, CompiledLayer& out)
{
    std::uint64_t m = 0, k = 0, n = 0, batch = 0, bytes = 0;
    if (!in.str(out.family) || !getSpec(in, out.spec) || !in.u64(m) ||
        !in.u64(k) || !in.u64(n) || !in.i32(out.timesteps) ||
        !in.u64(batch) || !in.u64(bytes) || batch == 0)
        return false;
    out.m = static_cast<std::size_t>(m);
    out.k = static_cast<std::size_t>(k);
    out.n = static_cast<std::size_t>(n);
    out.batch = static_cast<std::size_t>(batch);
    out.bytes = static_cast<std::size_t>(bytes);

    if (out.family == "loas")
        out.artifact = getLoas(in);
    else if (out.family == "sparten-snn")
        out.artifact = getSparten(in);
    else if (out.family == "gospa")
        out.artifact = getGospa(in);
    else if (out.family == "gamma")
        out.artifact = getGamma(in);
    else if (out.family == "systolic")
        out.artifact = getSystolic(in);
    else if (out.family == SpartenSim::kAnnFamily)
        out.artifact = getSpartenAnn(in);
    else if (out.family == GammaSim::kAnnFamily)
        out.artifact = getGammaAnn(in);
    else
        return false;
    return out.artifact != nullptr && in.ok() && in.remaining() == 0;
}

namespace {

using Counters = std::array<std::uint64_t, kNumCategories>;

constexpr Counters TrafficStats::*kTrafficFields[] = {
    &TrafficStats::dram_read, &TrafficStats::dram_write,
    &TrafficStats::sram_read, &TrafficStats::sram_write};

constexpr std::uint64_t OpCounts::*kOpFields[] = {
    &OpCounts::acc_ops,          &OpCounts::correction_ops,
    &OpCounts::mac_ops,          &OpCounts::fast_prefix_ops,
    &OpCounts::laggy_prefix_ops, &OpCounts::fifo_ops,
    &OpCounts::lif_ops,          &OpCounts::mask_and_ops,
    &OpCounts::merge_ops,        &OpCounts::encode_ops};

// A field added to RunResult (or its traffic and op counters) must be
// serialized below and bump ArtifactStore::kResultVersion; these fail
// to compile until the layout above is updated.
static_assert(sizeof(TrafficStats) ==
              std::size(kTrafficFields) * sizeof(Counters));
static_assert(sizeof(OpCounts) ==
              std::size(kOpFields) * sizeof(std::uint64_t));
static_assert(sizeof(RunResult) ==
              2 * sizeof(std::string) + 5 * sizeof(std::uint64_t) +
                  sizeof(TrafficStats) + sizeof(OpCounts) +
                  sizeof(double));

} // namespace

void
serializeLayerResults(const LayerResults& results, Writer& out)
{
    out.u64(results.size());
    for (const RunResult& r : results) {
        out.str(r.accel);
        out.str(r.workload);
        out.u64(r.compute_cycles);
        out.u64(r.dram_cycles);
        out.u64(r.total_cycles);
        for (const auto field : kTrafficFields)
            for (const std::uint64_t v : r.traffic.*field)
                out.u64(v);
        for (const auto field : kOpFields)
            out.u64(r.ops.*field);
        out.u64(r.cache_hits);
        out.u64(r.cache_misses);
        out.f64(r.static_scale);
    }
}

bool
deserializeLayerResults(Reader& in, LayerResults& out)
{
    std::uint64_t count = 0;
    if (!in.u64(count) || count == 0)
        return false;
    out.clear();
    // Each result reads at least its fixed fields, so a corrupt count
    // fails on the first read past the payload, never allocates ahead.
    for (std::uint64_t i = 0; i < count; ++i) {
        RunResult& r = out.emplace_back();
        bool ok = in.str(r.accel) && in.str(r.workload) &&
                  in.u64(r.compute_cycles) && in.u64(r.dram_cycles) &&
                  in.u64(r.total_cycles);
        for (const auto field : kTrafficFields)
            for (std::uint64_t& v : r.traffic.*field)
                ok = ok && in.u64(v);
        for (const auto field : kOpFields)
            ok = ok && in.u64(r.ops.*field);
        ok = ok && in.u64(r.cache_hits) && in.u64(r.cache_misses) &&
             in.f64(r.static_scale);
        if (!ok)
            return false;
    }
    return in.remaining() == 0;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

} // namespace

std::uint64_t
fnv1a(const char* data, std::size_t size, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t
fnv1aWords(const char* data, std::size_t size)
{
    std::uint64_t hash = kFnvOffset;
    const std::size_t words = size / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < words; ++i) {
        std::uint64_t word;
        std::memcpy(&word, data + i * sizeof(word), sizeof(word));
        hash ^= word;
        hash *= kFnvPrime;
    }
    const std::size_t tail = words * sizeof(std::uint64_t);
    return fnv1a(data + tail, size - tail, hash);
}

} // namespace artio
} // namespace loas
