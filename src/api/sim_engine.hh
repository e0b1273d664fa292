/**
 * @file
 * Batched, multi-threaded simulation engine. A SimRequest names a job
 * matrix — accelerator spec strings x network specs — and the engine
 * executes every (accelerator, network) cell on a thread pool,
 * returning a SimReport of RunResult + EnergyBreakdown rows.
 *
 * Simulation is two-phase (see accel/accelerator.hh): each layer is
 * lowered by prepare() into compiled operand formats exactly once per
 * (network, layer, ft-variant, format family, timesteps) key in a
 * shared CompiledCache, and every design variant of that family
 * executes the same read-only artifact — a `loas?pes=16,32,64` sweep
 * compresses its tensors once, not once per cell.
 *
 * Workloads are synthesized on demand: the first compile miss of a
 * (network, ft-variant) generates the whole network once, shared by
 * every format family. A run whose lookups all hit synthesizes
 * nothing.
 *
 * Results are deterministic: each cell is simulated on a private
 * accelerator instance from seeded inputs and written to its fixed
 * slot, so a run with N worker threads is bit-identical to the serial
 * run of the same request.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/run_result.hh"
#include "energy/energy_model.hh"
#include "workload/compiled_cache.hh"
#include "workload/layer_spec.hh"

namespace loas {

/** One batch of simulation jobs: every accelerator on every network. */
struct SimRequest
{
    /** Accelerator spec strings ("loas", "gamma?pes=32", ...). */
    std::vector<std::string> accels;

    /** Workloads; single-layer networks express layer studies. */
    std::vector<NetworkSpec> networks;

    /** Workload-synthesis seed (per-layer diversified downstream). */
    std::uint64_t seed = 101;

    /**
     * Inputs simulated per (accelerator, network) cell: each gets an
     * independently-seeded spike tensor per layer (weights are shared),
     * compiled into ONE artifact per cache key and executed over a
     * batch-level parallel loop. 1 (the default) is byte-identical to
     * the unbatched engine. Must be >= 1.
     */
    std::size_t batch = 1;

    /** Also evaluate the energy model on every result. */
    bool energy = true;

    /** Per-op energies used when `energy` is set. */
    EnergyParams energy_params;

    /**
     * Worker threads: 1 = serial in the calling thread, 0 = one per
     * hardware thread (capped by the job count).
     */
    int threads = 0;

    /**
     * External compiled-workload cache, typically
     * &CompiledCache::process() so artifacts persist across engine
     * runs. Null (the default) gives the run a private cache, scoped
     * and configured by the two fields below. The caller owns an
     * external cache's configuration; the engine only uses it.
     */
    CompiledCache* compiled_cache = nullptr;

    /** Private cache's in-memory byte budget (0 = unlimited). */
    std::uint64_t cache_budget_bytes = 0;

    /** Private cache's on-disk level directory ("" = none). */
    std::string cache_dir;

    /**
     * Cooperative cancellation token, owned by the caller and shared
     * with whoever may cancel the run (the serve job queue sets it on
     * cancel/timeout). The engine checks it before each job-matrix
     * cell (a cell synthesizes the workloads it misses) — never
     * mid-cell — and aborts by throwing SimCancelled. Null = not
     * cancellable.
     */
    const std::atomic<bool>* cancel = nullptr;
};

/** Thrown by SimEngine::run when the request's cancel token is set. */
class SimCancelled : public std::runtime_error
{
  public:
    SimCancelled() : std::runtime_error("simulation run cancelled") {}
};

/** One (accelerator, network) cell of a finished job matrix. */
struct SimRun
{
    std::string accel_spec;   // spec string as requested
    std::string network;      // NetworkSpec::name

    /** Batch aggregate (== the single input's result at batch 1). */
    RunResult result;
    EnergyBreakdown energy;   // zeros when the request disabled energy

    /**
     * Per-input network totals, in input order; empty at batch 1 so
     * unbatched reports (and their JSON) are unchanged.
     */
    std::vector<RunResult> per_input;
};

/** All cells of a finished SimRequest, in accel-major request order. */
struct SimReport
{
    std::vector<SimRun> runs;

    /**
     * Compiled-workload cache accounting of this run: counters are
     * this run's own lookups, attributed exactly at the cache mutex
     * (thread-count invariant, and exact even when several engine
     * runs share one cache concurrently — each run tallies only the
     * hits/misses/disk traffic its own getOrCompile calls caused);
     * entries/bytes are the shared cache's occupancy after the run.
     * compile_ms is prepare time and varies run to run.
     */
    CompiledCache::Stats compile_cache;

    /** Time spent compiling (prepare) and executing layers, each
     *  summed over workers: CPU sums, not wall time. */
    double prepare_ms = 0.0;
    double sim_ms = 0.0;

    /** Layers this run synthesized on compile misses (0 when every
     *  lookup hit), and the time that took, summed over workers. Not
     *  part of the run JSON. */
    std::uint64_t synth_layers = 0;
    double synth_ms = 0.0;

    /** Cell lookup by request spec string + network name. */
    const SimRun* find(const std::string& accel_spec,
                       const std::string& network) const;

    /** Like find(), but a missing cell is fatal (harness convenience). */
    const SimRun& at(const std::string& accel_spec,
                     const std::string& network) const;
};

/** Executes SimRequests. Stateless; one instance can serve any number
 *  of requests from any thread. */
class SimEngine
{
  public:
    SimEngine() = default;

    /**
     * Run the full job matrix. Throws std::invalid_argument for
     * malformed specs, unknown registry keys or bad options before any
     * simulation starts.
     */
    SimReport run(const SimRequest& request) const;
};

} // namespace loas
