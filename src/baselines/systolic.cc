#include "baselines/systolic.hh"

#include <algorithm>
#include <array>
#include <memory>

#include "api/registry.hh"
#include "common/bitutil.hh"
#include "mem/memory_system.hh"

namespace loas {

namespace {

/** Quantities shared by both systolic models. */
struct LayerShape
{
    std::size_t m, k, n;
    int timesteps;
    std::uint64_t n_tiles;
    std::uint64_t spikes;
    std::uint64_t max_spikes_per_t;
};

/** Tile/shape view of one input of a compiled layer for this array
 *  geometry. */
LayerShape
analyze(const CompiledLayer& compiled, const SystolicCompiled& art,
        int rows, std::size_t input)
{
    if (input >= art.spikes.size())
        fatal("layer '%s': input %zu of a %zu-input batch",
              compiled.spec.name.c_str(), input, art.spikes.size());
    LayerShape s;
    s.m = compiled.m;
    s.k = compiled.k;
    s.n = compiled.n;
    s.timesteps = compiled.timesteps;
    s.n_tiles = ceilDiv<std::uint64_t>(
        s.n, static_cast<std::uint64_t>(rows));
    s.spikes = art.spikes[input];
    s.max_spikes_per_t = art.max_spikes_per_t[input];
    return s;
}

/**
 * Traffic common to PTB and Stellar. `element_steps` is the number of
 * element-dispatch steps the array performs (dense stream length for
 * PTB, spike-gated length for Stellar): each step reads one
 * element-addressed input entry and moves a 16-bit partial sum in and
 * out of the column accumulator buffers.
 */
void
chargeCommonTraffic(MemorySystem& mem, const LayerShape& s,
                    std::uint64_t element_steps)
{
    // Dense int8 weights streamed once per output tile set (weights of
    // a tile stay stationary across all M rows).
    mem.streamRead(TensorCategory::Weight, s.k * s.n);
    mem.scratchWrite(TensorCategory::Weight, s.k * s.n); // array load

    // Input spikes enter DRAM once in packed form.
    const std::uint64_t input_bytes = ceilDiv<std::uint64_t>(
        s.m * s.k * static_cast<std::uint64_t>(s.timesteps), 8);
    mem.streamRead(TensorCategory::Input, input_bytes);

    // Per-step buffer activity: element-addressed input entry plus a
    // 16-bit accumulator read-modify-write.
    mem.scratchRead(TensorCategory::Input, element_steps);
    mem.scratchRead(TensorCategory::Psum, element_steps * 2);
    mem.scratchWrite(TensorCategory::Psum, element_steps * 2);

    // Output spike trains.
    const std::uint64_t outputs =
        static_cast<std::uint64_t>(s.m) * s.n *
        static_cast<std::uint64_t>(s.timesteps);
    mem.streamWrite(TensorCategory::Output,
                    ceilDiv<std::uint64_t>(outputs, 8));
}

/** Small arrays without the 256 KB shared cache idle at lower power. */
constexpr double kSystolicStaticScale = 0.2;

} // namespace

SystolicBase::SystolicBase(const SystolicConfig& config)
    : config_(config)
{
}

std::string
SystolicBase::formatFamily() const
{
    return "systolic";
}

CompiledLayer
SystolicBase::prepare(const LayerData& layer) const
{
    const std::size_t m = layer.spikes.rows();
    const std::size_t k = layer.spikes.cols();
    const int timesteps = layer.spec.t;

    // Per-timestep spike counts in one pass over the packed words (one
    // ctz per spike instead of one bit test per (r, c, t)), once per
    // batch input.
    auto art = std::make_shared<SystolicCompiled>();
    const std::size_t batch = layer.batchSize();
    art->spikes.assign(batch, 0);
    art->max_spikes_per_t.assign(batch, 0);
    for (std::size_t b = 0; b < batch; ++b) {
        const SpikeTensor& spikes = layer.input(b);
        std::array<std::uint64_t, kMaxTimesteps> counts{};
        for (std::size_t r = 0; r < m; ++r) {
            const TimeWord* const row = spikes.rowWords(r);
            for (std::size_t c = 0; c < k; ++c) {
                TimeWord w = row[c];
                while (w) {
                    const int t = lowestSetBit(w);
                    w &= w - 1;
                    ++counts[static_cast<std::size_t>(t)];
                }
            }
        }
        std::uint64_t max_per_t = 0;
        for (int t = 0; t < timesteps; ++t) {
            art->spikes[b] += counts[static_cast<std::size_t>(t)];
            max_per_t =
                std::max(max_per_t, counts[static_cast<std::size_t>(t)]);
        }
        art->max_spikes_per_t[b] = max_per_t;
    }
    return makeCompiledLayer(layer, formatFamily(), std::move(art),
                             sizeof(SystolicCompiled) +
                                 2 * batch * sizeof(std::uint64_t));
}

PtbSim::PtbSim(const SystolicConfig& config) : SystolicBase(config) {}

std::string
PtbSim::name() const
{
    return "PTB";
}

RunResult
PtbSim::executeInput(const CompiledLayer& compiled, std::size_t input)
{
    const auto& art =
        artifactAs<SystolicCompiled>(compiled, formatFamily());
    const LayerShape s = analyze(compiled, art, config_.rows, input);
    MemorySystem& mem = coldMemory(mem_, config_.cache, config_.dram);
    // Dense dispatch: every (m, k) position, every timestep column.
    const std::uint64_t element_steps =
        s.n_tiles * static_cast<std::uint64_t>(s.m) * s.k *
        static_cast<std::uint64_t>(s.timesteps);
    chargeCommonTraffic(mem, s, element_steps);

    RunResult result;
    result.accel = name();
    result.workload = compiled.spec.name;
    result.static_scale = kSystolicStaticScale;

    // Each output tile: load weights (K deep), then stream all M rows
    // of K dense elements; no spike skipping. The time windows run in
    // the parallel columns, so the T loop does not multiply the
    // streaming term, but zero spikes are streamed like ones.
    const std::uint64_t fill = static_cast<std::uint64_t>(
        config_.rows + config_.cols - 2);
    const std::uint64_t tile_cycles =
        static_cast<std::uint64_t>(s.k) + fill +
        static_cast<std::uint64_t>(s.m) * s.k;
    result.compute_cycles = s.n_tiles * tile_cycles;

    // Accumulates happen only on actual spikes (clock gating), against
    // every weight lane of the tile.
    result.ops.acc_ops = s.spikes * static_cast<std::uint64_t>(s.n);
    result.ops.lif_ops = static_cast<std::uint64_t>(s.m) * s.n *
                         static_cast<std::uint64_t>(s.timesteps);

    result.dram_cycles = mem.dramCycles();
    result.total_cycles = std::max(result.compute_cycles,
                                   result.dram_cycles);
    result.traffic = mem.stats();
    result.cache_hits = mem.cacheHits();
    result.cache_misses = mem.cacheMisses();
    return result;
}

StellarSim::StellarSim(const SystolicConfig& config)
    : SystolicBase(config)
{
}

std::string
StellarSim::name() const
{
    return "Stellar";
}

RunResult
StellarSim::executeInput(const CompiledLayer& compiled, std::size_t input)
{
    const auto& art =
        artifactAs<SystolicCompiled>(compiled, formatFamily());
    const LayerShape s = analyze(compiled, art, config_.rows, input);
    MemorySystem& mem = coldMemory(mem_, config_.cache, config_.dram);
    // Spike-gated dispatch: only actual spikes enter the array.
    const std::uint64_t element_steps = s.n_tiles * s.spikes;
    chargeCommonTraffic(mem, s, element_steps);

    RunResult result;
    result.accel = name();
    result.workload = compiled.spec.name;
    result.static_scale = kSystolicStaticScale;

    // Stellar skips zero spikes: the streamed length per column is the
    // spike count of its timestep; columns run in parallel, so the
    // slowest (densest) timestep sets the pace.
    const std::uint64_t fill = static_cast<std::uint64_t>(
        config_.rows + config_.cols - 2);
    const std::uint64_t tile_cycles =
        static_cast<std::uint64_t>(s.k) + fill + s.max_spikes_per_t;
    result.compute_cycles = s.n_tiles * tile_cycles;

    result.ops.acc_ops = s.spikes * static_cast<std::uint64_t>(s.n);
    // FS-neuron accumulate/fire stages.
    result.ops.lif_ops = static_cast<std::uint64_t>(s.m) * s.n *
                         static_cast<std::uint64_t>(s.timesteps);

    result.dram_cycles = mem.dramCycles();
    result.total_cycles = std::max(result.compute_cycles,
                                   result.dram_cycles);
    result.traffic = mem.stats();
    result.cache_hits = mem.cacheHits();
    result.cache_misses = mem.cacheMisses();
    return result;
}


namespace {

SystolicConfig
systolicConfigFromSpec(OptionReader& opts)
{
    SystolicConfig config;
    config.rows = opts.getInt("rows", config.rows);
    config.cols = opts.getInt("cols", config.cols);
    return config;
}

const RegisterAccelerator register_ptb(
    "systolic",
    {"PTB partially temporal-parallel systolic array",
     {"rows", "cols"},
     /*ft_workload=*/false, [](const AccelSpec& spec) {
         OptionReader opts(spec);
         const SystolicConfig config = systolicConfigFromSpec(opts);
         opts.finish();
         return std::make_unique<PtbSim>(config);
     }});

const RegisterAccelerator register_stellar(
    "stellar",
    {"Stellar fully temporal-parallel FS-neuron systolic array",
     {"rows", "cols"},
     /*ft_workload=*/false, [](const AccelSpec& spec) {
         OptionReader opts(spec);
         const SystolicConfig config = systolicConfigFromSpec(opts);
         opts.finish();
         return std::make_unique<StellarSim>(config);
     }});

} // namespace

} // namespace loas
