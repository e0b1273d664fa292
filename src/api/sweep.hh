/**
 * @file
 * Design-space sweep layer on top of the SimEngine. A SweepRequest
 * names accelerator spec *grids* ("loas?pes=16,32,64&t=4,8") and
 * network grids ("vgg16-l8?ws=0.982,0.684,0.25"); the engine expands
 * their cartesian products into one batched job matrix, runs it on the
 * SimEngine's thread pool (sharing the per-network workload cache
 * across every design), and derives the comparison columns the paper's
 * scaling figures plot: speedup against a named baseline design,
 * energy-delay product, and a Pareto-front flag over the
 * (latency, energy) plane of each network — (latency, DRAM traffic)
 * when the energy model is disabled.
 *
 * Determinism matches the SimEngine's: cells land in fixed expansion
 * order and a run with N worker threads is bit-identical to the serial
 * run, so sweep artifacts (CSV/JSON) diff cleanly across machines.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/accel_spec.hh"
#include "api/sim_engine.hh"

namespace loas {

/** A design-space sweep: accelerator grids x network grids. */
struct SweepRequest
{
    /**
     * Accelerator spec grids ("loas?pes=16,32&t=4,8"); each expands to
     * its cartesian product, duplicates across grids are dropped.
     */
    std::vector<std::string> grids;

    /**
     * Network grids. Keys: the full networks `alexnet`, `vgg16`,
     * `resnet19`, `all`, and the single-layer workloads `alexnet-l4`,
     * `vgg16-l8`, `resnet19-l19`, `t-hff`, which accept `t=` (timestep
     * rescale) and `ws=` (weight-sparsity fraction) value lists.
     */
    std::vector<std::string> networks;

    /**
     * Baseline design for the speedup / energy-gain columns: a concrete
     * spec string, simulated on every network (and appended to the
     * matrix when no grid expands to it). Empty = first expanded design.
     */
    std::string baseline;

    /** Workload-synthesis seed (SimRequest passthrough). */
    std::uint64_t seed = 101;

    /** Inputs per cell (SimRequest passthrough; 1 = unbatched). */
    std::size_t batch = 1;

    /** Evaluate the energy model (enables energy_gain/EDP columns). */
    bool energy = true;

    /** Worker threads (SimRequest passthrough; 0 = one per core). */
    int threads = 0;

    /** Compiled-cache wiring (SimRequest passthrough, see there). */
    CompiledCache* compiled_cache = nullptr;
    std::string cache_dir;
};

/** One (design, network) cell of a finished sweep, plus derived columns. */
struct SweepCell
{
    std::string accel_spec;  // canonical spec string (AccelSpec::str)
    std::string accel_key;   // registry key
    std::map<std::string, std::string> accel_options;
    std::string network;     // expanded network name
    bool is_baseline = false;

    RunResult result;
    EnergyBreakdown energy;  // zeros when the request disabled energy

    /** baseline_cycles / cycles on the same network. */
    double speedup = 0.0;
    /** baseline_pJ / pJ on the same network (0 when energy is off). */
    double energy_gain = 0.0;
    /** total_pJ x total_cycles (0 when energy is off). */
    double edp = 0.0;
    /**
     * On the per-network Pareto front over (cycles, energy pJ) — or
     * (cycles, DRAM bytes) when the request disabled energy, so the
     * front still trades latency against a cost axis.
     */
    bool pareto = false;
};

/** All cells of a finished sweep, design-major in expansion order. */
struct SweepReport
{
    /** Resolved baseline spec (canonical). */
    std::string baseline;

    /** Union of option names across designs, sorted (CSV columns). */
    std::vector<std::string> option_columns;

    /**
     * Compiled-workload cache accounting (SimReport passthrough): how
     * many prepare-phase compilations the whole sweep actually ran vs
     * how many were served from the shared cache. Not serialized —
     * compile_ms is a timing, and the CSV/JSON artifacts must stay
     * thread-count invariant.
     */
    CompiledCache::Stats compile_cache;

    /** Time compiling (prepare) vs executing (sim), summed over
     *  workers (SimReport passthrough). */
    double prepare_ms = 0.0;
    double sim_ms = 0.0;

    /** Workload synthesis the sweep needed (SimReport passthrough;
     *  0 layers when every artifact was cached). Not serialized. */
    std::uint64_t synth_layers = 0;
    double synth_ms = 0.0;

    std::vector<SweepCell> cells;

    const SweepCell* find(const std::string& accel_spec,
                          const std::string& network) const;

    /** Like find(), but a missing cell is fatal. */
    const SweepCell& at(const std::string& accel_spec,
                        const std::string& network) const;
};

/**
 * Pareto front of a point set under minimization of both coordinates:
 * flags[i] is true iff no other point is <= in both coordinates and
 * < in at least one. Duplicated points are all on the front.
 */
std::vector<bool>
paretoFront(const std::vector<std::pair<double, double>>& points);

/**
 * Expand network grid strings (see SweepRequest::networks) into
 * concrete NetworkSpecs. Variant workloads are named by their canonical
 * grid-cell string ("vgg16-l8?t=8&ws=0.25"), so every expanded network
 * has a unique, greppable name. Unknown keys or options throw
 * std::invalid_argument. Duplicate expansions are dropped.
 */
std::vector<NetworkSpec>
expandNetworkGrids(const std::vector<std::string>& grids);

/** Executes SweepRequests. Stateless, like the SimEngine. */
class SweepEngine
{
  public:
    SweepEngine() = default;

    /**
     * Expand, validate and run the sweep matrix. Throws
     * std::invalid_argument for malformed grids, unknown registry or
     * network keys, or bad options before any simulation starts.
     */
    SweepReport run(const SweepRequest& request) const;
};

} // namespace loas
