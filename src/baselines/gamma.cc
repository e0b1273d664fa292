#include "baselines/gamma.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "api/registry.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"
#include "mem/memory_system.hh"
#include "tensor/compress.hh"

namespace loas {

namespace {

/** Expected non-zero count of a merged output row. */
std::uint64_t
expectedRowOccupancy(std::size_t n, double weight_density,
                     std::uint64_t fibers_merged)
{
    if (weight_density >= 1.0 || fibers_merged == 0)
        return fibers_merged == 0 ? 0 : n;
    const double miss =
        std::pow(1.0 - weight_density,
                 static_cast<double>(fibers_merged));
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(n) * (1.0 - miss)));
}

} // namespace

GammaSim::GammaSim(const GammaConfig& config) : config_(config) {}

std::string
GammaSim::name() const
{
    return "Gamma-SNN";
}

std::string
GammaSim::formatFamily() const
{
    return "gamma";
}

CompiledLayer
GammaSim::prepare(const LayerData& layer) const
{
    const int timesteps = layer.spec.t;
    const std::size_t m = layer.spikes.rows();
    const std::size_t k = layer.spikes.cols();

    auto art = std::make_shared<GammaCompiled>();
    art->b = compileWeightRows(layer.weights);
    art->weight_density = 1.0 - layer.weights.sparsity();

    // Per-(timestep, row) merge tasks, one CSR per batch input: the
    // columns whose spike fires and whose B row carries values, in the
    // scheduler's replay order. Built in two row-major passes over the
    // packed words (count, then fill), so task t*m+r holds row r's
    // columns in ascending order, as the t-outer walk visits them.
    const std::size_t batch = layer.batchSize();
    art->total_spikes.resize(batch);
    art->cols.resize(batch);
    art->ptr.resize(batch);
    std::size_t bytes = art->b.footprintBytes();
    for (std::size_t bi = 0; bi < batch; ++bi) {
        const SpikeTensor& spikes = layer.input(bi);
        auto& cols = art->cols[bi];
        auto& ptr = art->ptr[bi];
        art->total_spikes[bi] = spikes.countSpikes();

        const std::size_t n_tasks =
            static_cast<std::size_t>(timesteps) * m;
        const auto for_each_spike = [&](auto&& fn) {
            for (std::size_t r = 0; r < m; ++r) {
                const TimeWord* const row = spikes.rowWords(r);
                for (std::size_t c = 0; c < k; ++c) {
                    if (art->b.fibers[c].values.empty())
                        continue;
                    TimeWord w = row[c];
                    while (w) {
                        const int t = lowestSetBit(w);
                        w &= w - 1;
                        fn(static_cast<std::size_t>(t) * m + r, c);
                    }
                }
            }
        };
        // `next` counts each task's columns, then is its fill cursor.
        std::vector<std::uint64_t> next(n_tasks, 0);
        for_each_spike(
            [&](std::size_t task, std::size_t) { ++next[task]; });
        ptr.resize(n_tasks + 1);
        ptr[0] = 0;
        for (std::size_t i = 0; i < n_tasks; ++i)
            ptr[i + 1] = ptr[i] + next[i];
        cols.resize(ptr[n_tasks]);
        std::copy(ptr.begin(), ptr.end() - 1, next.begin());
        for_each_spike([&](std::size_t task, std::size_t c) {
            cols[next[task]++] = static_cast<std::uint32_t>(c);
        });
        bytes += cols.size() * sizeof(std::uint32_t) +
                 ptr.size() * sizeof(std::uint64_t);
    }

    return makeCompiledLayer(layer, formatFamily(), std::move(art),
                             bytes);
}

RunResult
GammaSim::executeInput(const CompiledLayer& compiled, std::size_t input)
{
    if (compiled.family == kAnnFamily) {
        if (input != 0)
            fatal("layer '%s': ANN compiled layers carry one input, "
                  "got %zu",
                  compiled.spec.name.c_str(), input);
        return executeAnn(compiled);
    }
    const auto& art = artifactAs<GammaCompiled>(compiled, formatFamily());
    if (input >= art.cols.size())
        fatal("layer '%s': input %zu of a %zu-input batch",
              compiled.spec.name.c_str(), input, art.cols.size());
    const std::vector<std::uint32_t>& task_cols = art.cols[input];
    const std::vector<std::uint64_t>& task_ptr = art.ptr[input];
    const int timesteps = compiled.timesteps;
    const std::size_t m = compiled.m;
    const std::size_t k = compiled.k;
    const std::size_t n = compiled.n;
    const double weight_density = art.weight_density;
    const auto& fibers_b = art.b.fibers;

    ExecuteScratch& scratch = scratch_;
    MemorySystem& mem =
        coldMemory(scratch.mem, config_.cache, config_.dram);

    RunResult result;
    result.accel = name();
    result.workload = compiled.spec.name;

    // A rows stream in once per timestep as per-spike CSR metadata.
    mem.streamRead(
        TensorCategory::Meta,
        ceilDiv<std::uint64_t>(
            art.total_spikes[input] *
                static_cast<std::uint64_t>(config_.coord_bits),
            8) +
            4 * (m + 1) * static_cast<std::uint64_t>(timesteps));

    // Gamma's row-window scheduler achieves near-perfect B-row reuse
    // through the FiberCache: each distinct row crosses DRAM once per
    // layer and is served on-chip afterwards.
    scratch.fetched.assign(k, false);
    std::vector<bool>& fetched = scratch.fetched;
    std::uint64_t row_uses = 0;
    std::uint64_t distinct_rows = 0;
    auto fetch_row = [&](std::size_t c, std::size_t nnz_b) {
        if (!fetched[c]) {
            fetched[c] = true;
            ++distinct_rows;
            mem.streamRead(TensorCategory::Meta,
                           fibers_b[c].metadataBytes());
            mem.streamRead(TensorCategory::Weight, nnz_b);
        }
        mem.scratchRead(TensorCategory::Meta,
                        fibers_b[c].metadataBytes());
        mem.scratchRead(TensorCategory::Weight, nnz_b);
        ++row_uses;
    };

    std::uint64_t pe_work_cycles = 0; // summed over all (t, row) tasks
    for (int t = 0; t < timesteps; ++t) {
        for (std::size_t r = 0; r < m; ++r) {
            // The compiled merge task of this (timestep, row): columns
            // with a spike set and a non-empty B row.
            const std::size_t task = static_cast<std::size_t>(t) * m + r;
            std::uint64_t nnz_a = 0;
            std::uint64_t updates = 0;
            for (std::uint64_t i = task_ptr[task];
                 i < task_ptr[task + 1]; ++i) {
                const std::size_t c = task_cols[i];
                const std::size_t nnz_b = fibers_b[c].values.size();
                ++nnz_a;
                updates += nnz_b;
                fetch_row(c, nnz_b);
            }
            if (nnz_a == 0)
                continue;

            // Radix-limited merge: extra rounds re-read and re-write
            // the partial output row in the FiberCache.
            const std::uint64_t rounds = ceilDiv<std::uint64_t>(
                nnz_a, static_cast<std::uint64_t>(config_.merge_radix));
            const std::uint64_t occupancy =
                expectedRowOccupancy(n, weight_density, nnz_a);
            const std::uint64_t repass_elems =
                (rounds > 1 ? rounds - 1 : 0) * occupancy;

            mem.scratchRead(TensorCategory::Psum, updates * 4);
            mem.scratchWrite(TensorCategory::Psum, updates * 4);
            mem.scratchRead(TensorCategory::Psum, repass_elems * 4);
            mem.scratchWrite(TensorCategory::Psum, repass_elems * 4);

            result.ops.merge_ops += updates + repass_elems;
            result.ops.acc_ops += updates;
            pe_work_cycles +=
                updates * config_.merge_cycles_per_update +
                repass_elems + nnz_a * config_.fiber_switch_cycles;
        }
    }

    // 16 PEs process rows in parallel; tasks are plentiful, so the
    // balanced approximation holds.
    std::uint64_t compute_cycles = ceilDiv<std::uint64_t>(
        pe_work_cycles, static_cast<std::uint64_t>(config_.num_pes));

    // LIF and output write-back (raw spike trains).
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
    result.total_cycles = std::max(compute_cycles, result.dram_cycles);
    result.traffic = mem.stats();
    // FiberCache behavior: one miss per distinct row, hits afterwards.
    result.cache_misses = distinct_rows;
    result.cache_hits = row_uses - distinct_rows;
    return result;
}

CompiledLayer
GammaSim::prepareAnn(const AnnLayerData& layer) const
{
    const std::size_t m = layer.acts.rows();
    const std::size_t k = layer.acts.cols();
    const std::size_t n = layer.weights.cols();
    if (layer.weights.rows() != k)
        fatal("layer '%s': A is %zux%zu but B is %zux%zu",
              layer.spec.name.c_str(), m, k, layer.weights.rows(), n);

    auto art = std::make_shared<GammaAnnCompiled>();
    art->b = compileWeightRows(layer.weights);
    art->weight_density = 1.0 - layer.weights.sparsity();

    // Per-row merge tasks in CSR form: the columns whose activation is
    // non-zero and whose B row carries values, ascending — exactly the
    // serial walk order of the merger. nnz_acts counts every non-zero
    // activation (they all stream in, mergeable or not).
    art->ptr.resize(m + 1);
    art->ptr[0] = 0;
    for (std::size_t r = 0; r < m; ++r) {
        std::uint64_t count = 0;
        for (std::size_t c = 0; c < k; ++c) {
            if (layer.acts(r, c) == 0)
                continue;
            ++art->nnz_acts;
            if (!art->b.fibers[c].values.empty())
                ++count;
        }
        art->ptr[r + 1] = art->ptr[r] + count;
    }
    art->cols.resize(art->ptr[m]);
    std::uint64_t cursor = 0;
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < k; ++c)
            if (layer.acts(r, c) != 0 &&
                !art->b.fibers[c].values.empty())
                art->cols[cursor++] = static_cast<std::uint32_t>(c);

    CompiledLayer out;
    out.spec = layer.spec;
    out.family = kAnnFamily;
    out.m = m;
    out.k = k;
    out.n = n;
    out.timesteps = 1;
    out.batch = 1;
    out.bytes = art->b.footprintBytes() +
                art->cols.size() * sizeof(std::uint32_t) +
                art->ptr.size() * sizeof(std::uint64_t);
    out.artifact = std::move(art);
    return out;
}

RunResult
GammaSim::executeAnn(const CompiledLayer& compiled)
{
    const auto& art = artifactAs<GammaAnnCompiled>(compiled, kAnnFamily);
    const std::size_t m = compiled.m;
    const std::size_t k = compiled.k;
    const std::size_t n = compiled.n;
    const double weight_density = art.weight_density;
    const auto& fibers_b = art.b.fibers;

    ExecuteScratch& scratch = scratch_;
    MemorySystem& mem =
        coldMemory(scratch.mem, config_.cache, config_.dram);

    RunResult result;
    result.accel = "Gamma-ANN";
    result.workload = compiled.spec.name;

    // Activations stream once: per-nonzero coordinate + int8 value.
    mem.streamRead(TensorCategory::Input, art.nnz_acts);
    mem.streamRead(
        TensorCategory::Meta,
        ceilDiv<std::uint64_t>(
            art.nnz_acts * static_cast<std::uint64_t>(config_.coord_bits),
            8) +
            4 * (m + 1));

    scratch.fetched.assign(k, false);
    std::vector<bool>& fetched = scratch.fetched;
    std::uint64_t row_uses = 0;
    std::uint64_t distinct_rows = 0;
    auto fetch_row = [&](std::size_t c, std::size_t nnz_b) {
        if (!fetched[c]) {
            fetched[c] = true;
            ++distinct_rows;
            mem.streamRead(TensorCategory::Meta,
                           fibers_b[c].metadataBytes());
            mem.streamRead(TensorCategory::Weight, nnz_b);
        }
        mem.scratchRead(TensorCategory::Meta,
                        fibers_b[c].metadataBytes());
        mem.scratchRead(TensorCategory::Weight, nnz_b);
        ++row_uses;
    };

    std::uint64_t pe_work_cycles = 0;
    for (std::size_t r = 0; r < m; ++r) {
        std::uint64_t nnz_a = 0;
        std::uint64_t updates = 0;
        for (std::uint64_t i = art.ptr[r]; i < art.ptr[r + 1]; ++i) {
            const std::size_t c = art.cols[i];
            const std::size_t nnz_b = fibers_b[c].values.size();
            ++nnz_a;
            updates += nnz_b;
            fetch_row(c, nnz_b);
        }
        if (nnz_a == 0)
            continue;
        const std::uint64_t rounds = ceilDiv<std::uint64_t>(
            nnz_a, static_cast<std::uint64_t>(config_.merge_radix));
        const std::uint64_t occupancy =
            expectedRowOccupancy(n, weight_density, nnz_a);
        const std::uint64_t repass_elems =
            (rounds > 1 ? rounds - 1 : 0) * occupancy;

        mem.scratchRead(TensorCategory::Psum, updates * 4);
        mem.scratchWrite(TensorCategory::Psum, updates * 4);
        mem.scratchRead(TensorCategory::Psum, repass_elems * 4);
        mem.scratchWrite(TensorCategory::Psum, repass_elems * 4);

        result.ops.merge_ops += updates + repass_elems;
        result.ops.mac_ops += updates;
        pe_work_cycles += updates * config_.merge_cycles_per_update +
                          repass_elems +
                          nnz_a * config_.fiber_switch_cycles;
    }

    std::uint64_t compute_cycles = ceilDiv<std::uint64_t>(
        pe_work_cycles, static_cast<std::uint64_t>(config_.num_pes));

    // int8 outputs written back once.
    mem.streamWrite(TensorCategory::Output, m * n);
    mem.flushCache();

    result.compute_cycles = compute_cycles;
    result.dram_cycles = mem.dramCycles();
    result.total_cycles = std::max(compute_cycles, result.dram_cycles);
    result.traffic = mem.stats();
    result.cache_misses = distinct_rows;
    result.cache_hits = row_uses - distinct_rows;
    return result;
}


namespace {

const RegisterAccelerator register_gamma(
    "gamma",
    {"Gamma-SNN row-wise merging baseline",
     {"pes", "radix"},
     /*ft_workload=*/false, [](const AccelSpec& spec) {
         OptionReader opts(spec);
         GammaConfig config;
         config.num_pes = opts.getInt("pes", config.num_pes);
         config.merge_radix = opts.getInt("radix", config.merge_radix);
         opts.finish();
         return std::make_unique<GammaSim>(config);
     }});

} // namespace

} // namespace loas
