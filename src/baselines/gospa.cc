#include "baselines/gospa.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "api/registry.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"
#include "mem/memory_system.hh"

namespace loas {

namespace {

constexpr std::uint64_t kBaseBMeta = 0x8000'0000ull;
constexpr std::uint64_t kBaseBValues = 0xc000'0000ull;

} // namespace

GospaSim::GospaSim(const GospaConfig& config) : config_(config) {}

std::string
GospaSim::name() const
{
    return "GoSPA-SNN";
}

std::string
GospaSim::formatFamily() const
{
    return "gospa";
}

CompiledLayer
GospaSim::prepare(const LayerData& layer) const
{
    const int timesteps = layer.spec.t;
    const std::size_t m = layer.spikes.rows();
    const std::size_t k = layer.spikes.cols();

    auto art = std::make_shared<GospaCompiled>();
    art->b = compileWeightRows(layer.weights);

    // A as per-timestep CSC, one stream per batch input: spike counts
    // per (t, k) column, in one row-major pass over the packed words
    // (each word adds one count per set spike bit).
    art->col_spikes.resize(layer.batchSize());
    art->total_spikes.assign(layer.batchSize(), 0);
    std::size_t bytes = art->b.footprintBytes();
    for (std::size_t b = 0; b < layer.batchSize(); ++b) {
        const SpikeTensor& spikes = layer.input(b);
        auto& col_spikes = art->col_spikes[b];
        col_spikes.assign(static_cast<std::size_t>(timesteps) * k, 0);
        for (std::size_t r = 0; r < m; ++r) {
            const TimeWord* const row = spikes.rowWords(r);
            for (std::size_t c = 0; c < k; ++c) {
                TimeWord w = row[c];
                while (w) {
                    const int t = lowestSetBit(w);
                    w &= w - 1;
                    ++col_spikes[static_cast<std::size_t>(t) * k + c];
                }
            }
        }
        for (const auto count : col_spikes)
            art->total_spikes[b] += count;
        bytes += col_spikes.size() * sizeof(std::uint32_t);
    }

    return makeCompiledLayer(layer, formatFamily(), std::move(art),
                             bytes);
}

RunResult
GospaSim::executeInput(const CompiledLayer& compiled, std::size_t input)
{
    const auto& art = artifactAs<GospaCompiled>(compiled, formatFamily());
    if (input >= art.col_spikes.size())
        fatal("layer '%s': input %zu of a %zu-input batch",
              compiled.spec.name.c_str(), input, art.col_spikes.size());
    const std::vector<std::uint32_t>& col_spikes = art.col_spikes[input];
    const int timesteps = compiled.timesteps;
    const std::size_t m = compiled.m;
    const std::size_t k = compiled.k;
    const std::size_t n = compiled.n;

    const auto& fibers_b = art.b.fibers;
    const auto& b_meta_off = art.b.meta_off;
    const auto& b_val_off = art.b.val_off;

    MemorySystem& mem = coldMemory(mem_, config_.cache, config_.dram);

    RunResult result;
    result.accel = name();
    result.workload = compiled.spec.name;

    // --- Input streaming: A as per-timestep CSC with per-spike coords.
    const std::uint64_t total_spikes = art.total_spikes[input];
    const std::uint64_t coord_bytes = ceilDiv<std::uint64_t>(
        total_spikes * static_cast<std::uint64_t>(config_.coord_bits), 8);
    // Column pointers per timestep plus one coordinate per spike. OP
    // dataflow reads the input exactly once.
    mem.streamRead(TensorCategory::Meta,
                   coord_bytes + 4 * (k + 1) *
                                     static_cast<std::uint64_t>(timesteps));

    // --- Main loop: per timestep, per active column.
    std::uint64_t compute_cycles = 0;
    std::uint64_t updates = 0;
    for (int t = 0; t < timesteps; ++t) {
        const auto ts = static_cast<std::size_t>(t);
        for (std::size_t c = 0; c < k; ++c) {
            const std::uint32_t spikes = col_spikes[ts * k + c];
            if (spikes == 0)
                continue;
            const std::size_t nnz_b = fibers_b[c].values.size();
            if (nnz_b == 0)
                continue;
            // Weight row through the shared cache (reused across
            // timesteps when capacity allows).
            mem.read(TensorCategory::Meta, kBaseBMeta + b_meta_off[c],
                     fibers_b[c].metadataBytes());
            mem.read(TensorCategory::Weight, kBaseBValues + b_val_off[c],
                     nnz_b);

            // Each spike applies the full B row; the 16 accumulators
            // retire up to num_pes updates per cycle, and the
            // intersection unit dispatches a few spikes per cycle.
            const std::uint64_t row_updates =
                static_cast<std::uint64_t>(spikes) * nnz_b;
            updates += row_updates;
            const std::uint64_t apply_cycles = std::max<std::uint64_t>(
                ceilDiv<std::uint64_t>(spikes,
                                       config_.spike_dispatch_per_cycle),
                ceilDiv<std::uint64_t>(
                    row_updates,
                    static_cast<std::uint64_t>(config_.num_pes)));
            compute_cycles += apply_cycles + config_.col_setup_cycles;
            result.ops.encode_ops += spikes; // intersection detection
        }
    }
    result.ops.merge_ops += updates;
    result.ops.acc_ops += updates;
    // Updates accumulate in PE-local registers and write through to
    // the psum memory once per update window.
    mem.scratchWrite(TensorCategory::Psum, updates * 4);

    // --- Partial-sum spill model (Fig. 5): the psum working set is
    // M x N x T x 4B; a fraction of whatever exceeds the on-chip psum
    // memory round-trips to DRAM before reduction completes (the
    // merger catches the rest in-flight).
    const std::uint64_t psum_ws =
        static_cast<std::uint64_t>(m) * n *
        static_cast<std::uint64_t>(timesteps) * 4;
    const std::uint64_t overflow =
        psum_ws > config_.psum_buffer_bytes
            ? psum_ws - config_.psum_buffer_bytes
            : 0;
    const auto spill = static_cast<std::uint64_t>(
        config_.psum_spill_fraction * static_cast<double>(overflow));
    mem.streamWrite(TensorCategory::Psum, spill);
    mem.streamRead(TensorCategory::Psum, spill);
    if (input == 0)
        last_psum_dram_ = 2 * spill;

    // Dependent spill round trips overlap poorly with compute.
    const std::uint64_t spill_stall = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(2 * spill) /
                  (config_.dram.bytes_per_cycle /
                   config_.psum_spill_bw_divisor)));

    // --- LIF and output write-back.
    result.ops.lif_ops += static_cast<std::uint64_t>(m) * n *
                          static_cast<std::uint64_t>(timesteps);
    compute_cycles += ceilDiv<std::uint64_t>(
        static_cast<std::uint64_t>(m) * n,
        static_cast<std::uint64_t>(config_.num_pes));
    mem.streamWrite(TensorCategory::Output,
                    ceilDiv<std::uint64_t>(
                        m * n * static_cast<std::size_t>(timesteps), 8));
    mem.flushCache();

    result.compute_cycles = compute_cycles;
    result.dram_cycles = mem.dramCycles();
    result.total_cycles =
        std::max(compute_cycles, mem.dramCycles()) + spill_stall;
    result.traffic = mem.stats();
    // Output-stationary psum accesses always hit the dedicated psum
    // memory; counting them is what gives GoSPA the lowest miss rate
    // in the paper's Fig. 14.
    result.cache_hits = mem.cacheHits() + updates;
    result.cache_misses = mem.cacheMisses();
    return result;
}


namespace {

const RegisterAccelerator register_gospa(
    "gospa",
    {"GoSPA-SNN sequential-timestep streaming baseline",
     {"pes"},
     /*ft_workload=*/false, [](const AccelSpec& spec) {
         OptionReader opts(spec);
         GospaConfig config;
         config.num_pes = opts.getInt("pes", config.num_pes);
         opts.finish();
         return std::make_unique<GospaSim>(config);
     }});

} // namespace

} // namespace loas
