#include "api/sim_engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>

#include "api/registry.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "workload/generator.hh"

namespace loas {

const SimRun*
SimReport::find(const std::string& accel_spec,
                const std::string& network) const
{
    for (const auto& run : runs)
        if (run.accel_spec == accel_spec && run.network == network)
            return &run;
    return nullptr;
}

const SimRun&
SimReport::at(const std::string& accel_spec,
              const std::string& network) const
{
    const SimRun* run = find(accel_spec, network);
    if (run == nullptr)
        fatal("SimReport has no cell (%s, %s)", accel_spec.c_str(),
              network.c_str());
    return *run;
}

SimReport
SimEngine::run(const SimRequest& request) const
{
    // Injected engine fault: an exception like any other run-time
    // failure, so it exercises the same surfaces — a structured
    // `failed` job in the daemon, an error exit in the CLI.
    fault::maybeThrow(fault::Site::EngineExecute);

    const auto& registry = AcceleratorRegistry::instance();

    // Validate the whole request up front: parse every spec, resolve
    // every registry key, and build (but discard) one instance so bad
    // options surface before any simulation time is spent.
    struct AccelJob
    {
        std::string spec_string;
        AccelSpec spec;
        bool ft_workload = false;
    };
    std::vector<AccelJob> accels;
    accels.reserve(request.accels.size());
    for (const auto& spec_string : request.accels) {
        AccelJob job;
        job.spec_string = spec_string;
        job.spec = parseAccelSpec(spec_string);
        job.ft_workload = registry.entry(job.spec.key).ft_workload;
        registry.make(job.spec);
        accels.push_back(std::move(job));
    }

    // Network names must be unique: they key both the report's cell
    // lookup and the compiled-workload cache, so a duplicate would
    // silently serve one network's compiled operands to the other.
    std::set<std::string> net_names;
    for (const auto& net : request.networks)
        if (!net_names.insert(net.name).second)
            throw std::invalid_argument(
                "duplicate network name '" + net.name +
                "' in SimRequest");

    if (request.batch < 1)
        throw std::invalid_argument("SimRequest batch must be >= 1");

    const int threads = resolveThreads(request.threads);

    // Cancellation is cooperative and cell-granular: the token is
    // polled before each cell, so a cancelled run stops within one
    // cell simulation (including any workload synthesis it needs).
    const auto check_cancelled = [&] {
        if (request.cancel &&
            request.cancel->load(std::memory_order_relaxed))
            throw SimCancelled();
    };
    check_cancelled();

    // Lower each layer through the shared compiled-workload cache and
    // execute the (accelerator x network) job matrix. Each job owns a
    // private accelerator instance and writes its fixed report slot,
    // which keeps multi-threaded runs bit-identical to serial ones;
    // compiled artifacts are shared read-only across all design
    // variants of a format family (one compilation per key, whatever
    // the thread count).
    const std::size_t n_nets = request.networks.size();
    SimReport report;
    report.runs.resize(accels.size() * n_nets);
    const EnergyModel energy_model;

    // A request-supplied cache outlives (and is shared across) engine
    // runs; otherwise the run gets a private cache configured from the
    // request. Either way the report carries this run's stat deltas.
    CompiledCache local_cache;
    CompiledCache* cache = request.compiled_cache;
    if (cache == nullptr) {
        cache = &local_cache;
        local_cache.setDiskDir(request.cache_dir);
    }
    // This run's own cache counters, attributed exactly under the
    // cache mutex — not a before/after snapshot subtraction, so the
    // tally stays correct when concurrent runs share the cache.
    CompiledCache::Stats attributed;
    using Clock = std::chrono::steady_clock;
    const auto elapsed_ns = [](Clock::time_point start) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
    };
    std::atomic<std::uint64_t> sim_ns{0};

    // Synthesis on demand: the first compile miss of a (network,
    // ft-variant) generates the whole network once for every family.
    struct Workload
    {
        std::once_flag once;
        std::vector<LayerData> layers;
    };
    std::vector<Workload> workloads(2 * n_nets);  // [2 * net + ft]
    std::atomic<std::uint64_t> synth_layers{0}, synth_ns{0};
    const auto synthesize = [&](std::size_t n, bool ft) {
        Workload& workload = workloads[2 * n + (ft ? 1 : 0)];
        std::call_once(workload.once, [&] {
            const auto t_synth = Clock::now();
            workload.layers = generateNetwork(
                request.networks[n], request.seed, ft, request.batch);
            synth_ns += elapsed_ns(t_synth);
            synth_layers += workload.layers.size();
        });
        return &workload.layers;
    };

    // Batched cells parallelize *inside* a cell too, along the input
    // axis: each cell splits its share of the thread budget over its
    // inputs, one accelerator instance per batch worker (an instance
    // runs on one thread). Each input lands in its fixed slot, so
    // results are byte-identical at any split.
    const std::size_t batch_workers = std::clamp<std::size_t>(
        static_cast<std::size_t>(threads) /
            std::max<std::size_t>(1, report.runs.size()),
        1, request.batch);

    const auto run_cell = [&](std::size_t, std::size_t i) {
        check_cancelled();
        const std::size_t a = i / n_nets;
        const std::size_t n = i % n_nets;
        const AccelJob& accel = accels[a];
        const NetworkSpec& net = request.networks[n];

        SimRun& run = report.runs[i];
        run.accel_spec = accel.spec_string;
        run.network = net.name;

        std::vector<std::unique_ptr<Accelerator>> instances;
        for (std::size_t w = 0; w < batch_workers; ++w)
            instances.push_back(registry.make(accel.spec));
        const Accelerator& instance = *instances.front();
        const std::string family = instance.formatFamily();
        const std::string design = accel.spec.str(); // keys its records
        const std::vector<LayerData>* layers = nullptr;
        const std::size_t n_layers = net.layers.size();

        // One cache call per layer: its record (memory, then disk),
        // else an execute of its artifact (memory, disk or compile),
        // whose results become the record.
        std::vector<std::shared_ptr<const LayerResults>> results;
        results.reserve(n_layers);
        for (std::size_t l = 0; l < n_layers; ++l) {
            const auto execute = [&](const CompiledLayer& compiled) {
                const auto t_exec = Clock::now();
                LayerResults inputs(compiled.batch);
                parallelForWorkers(
                    inputs.size(), static_cast<int>(instances.size()),
                    [&](std::size_t w, std::size_t b) {
                        inputs[b] = instances[w]->executeInput(compiled, b);
                    });
                sim_ns += elapsed_ns(t_exec);
                return inputs;
            };
            results.push_back(cache->getOrRun(
                compiledLayerKey(net.name, l, accel.ft_workload, family,
                                 net.layers[l].t, request.seed,
                                 request.batch),
                design, [&] { return instance.prepare((*layers)[l]); },
                execute, &attributed,
                [&] { layers = synthesize(n, accel.ft_workload); }));
        }
        std::vector<RunResult>* per_input =
            request.batch > 1 ? &run.per_input : nullptr;
        run.result = instance.reduceNetwork(results, net.name, per_input);
    };
    parallelForWorkers(report.runs.size(), threads, run_cell);

    // Energy is a pure function of each cell's RunResult, so it is
    // derived post-hoc while assembling the report instead of inside
    // the simulation job loop — it neither occupies worker threads nor
    // pollutes the sim_ms timing split.
    if (request.energy)
        for (auto& run : report.runs)
            run.energy = energy_model.evaluate(run.result);

    // The run is over: its networks' artifacts move to the evict-first
    // pool of a persistent cache, so the next run's compilations push
    // them out before anything still live.
    for (const auto& net : request.networks)
        cache->finishNetwork(net.name);

    report.compile_cache = attributed;
    const CompiledCache::Stats occupancy = cache->stats();
    report.compile_cache.entries = occupancy.entries;
    report.compile_cache.bytes = occupancy.bytes;
    report.prepare_ms = report.compile_cache.compile_ms;
    report.sim_ms = static_cast<double>(sim_ns.load()) / 1e6;
    report.synth_layers = synth_layers.load();
    report.synth_ms = static_cast<double>(synth_ns.load()) / 1e6;
    return report;
}

} // namespace loas
