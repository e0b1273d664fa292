#include "api/sweep.hh"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

/** Append the Table II full networks named by `key` ("all" = every). */
bool
appendFullNetworks(const std::string& key, const AccelSpecGrid& grid,
                   std::vector<NetworkSpec>& out)
{
    const bool known = key == "all" || key == "alexnet" ||
                       key == "vgg16" || key == "resnet19";
    if (!known)
        return false;
    if (!grid.options.empty())
        throw std::invalid_argument(
            "network '" + key +
            "' takes no options (t/ws apply to the single-layer "
            "workloads alexnet-l4, vgg16-l8, resnet19-l19, t-hff)");
    if (key == "all" || key == "alexnet")
        out.push_back(tables::alexnet());
    if (key == "all" || key == "vgg16")
        out.push_back(tables::vgg16());
    if (key == "all" || key == "resnet19")
        out.push_back(tables::resnet19());
    return true;
}

/** Base layer for the single-layer workload keys, or nullptr-like. */
bool
baseLayer(const std::string& key, LayerSpec& out)
{
    if (key == "alexnet-l4")
        out = tables::alexnetL4();
    else if (key == "vgg16-l8")
        out = tables::vgg16L8();
    else if (key == "resnet19-l19")
        out = tables::resnet19L19();
    else if (key == "t-hff")
        out = tables::transformerHff();
    else
        return false;
    return true;
}

} // namespace

std::vector<NetworkSpec>
expandNetworkGrids(const std::vector<std::string>& grids)
{
    std::vector<NetworkSpec> networks;
    std::set<std::string> seen;
    auto push = [&](NetworkSpec net) {
        if (seen.insert(net.name).second)
            networks.push_back(std::move(net));
    };

    for (const auto& grid_string : grids) {
        const AccelSpecGrid grid = parseAccelSpecGrid(grid_string);

        std::vector<NetworkSpec> full;
        if (appendFullNetworks(grid.key, grid, full)) {
            for (auto& net : full)
                push(std::move(net));
            continue;
        }

        LayerSpec base;
        if (!baseLayer(grid.key, base))
            throw std::invalid_argument(
                "unknown network '" + grid.key +
                "' in grid '" + grid_string +
                "' (known: alexnet, vgg16, resnet19, all, alexnet-l4, "
                "vgg16-l8, resnet19-l19, t-hff)");

        if (grid.cells() + networks.size() > kMaxGridCells)
            throw std::invalid_argument(
                "network grids expand to more than " +
                std::to_string(kMaxGridCells) + " networks");
        for (const AccelSpec& cell : grid.expand()) {
            OptionReader opts(cell);
            LayerSpec spec = base;
            // Order matters: ws rewrites the base layer's weight
            // sparsity, then the timestep rescale resolves the
            // temporal statistics of the resulting layer (the Fig. 17
            // construction, see vgg16L8WithWeightSparsity).
            spec.weight_sparsity =
                opts.getDouble("ws", spec.weight_sparsity, 0.0, 0.999);
            const int t = opts.getInt("t", spec.t);
            opts.finish();
            if (t != spec.t)
                spec = tables::withTimesteps(spec, t);
            push(NetworkSpec{cell.str(), {spec}});
        }
    }
    return networks;
}

std::vector<bool>
paretoFront(const std::vector<std::pair<double, double>>& points)
{
    std::vector<bool> flags(points.size(), true);
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (i == j)
                continue;
            const bool leq = points[j].first <= points[i].first &&
                             points[j].second <= points[i].second;
            const bool less = points[j].first < points[i].first ||
                              points[j].second < points[i].second;
            if (leq && less) {
                flags[i] = false;
                break;
            }
        }
    }
    return flags;
}

const SweepCell*
SweepReport::find(const std::string& accel_spec,
                  const std::string& network) const
{
    for (const auto& cell : cells)
        if (cell.accel_spec == accel_spec && cell.network == network)
            return &cell;
    return nullptr;
}

const SweepCell&
SweepReport::at(const std::string& accel_spec,
                const std::string& network) const
{
    const SweepCell* cell = find(accel_spec, network);
    if (cell == nullptr)
        fatal("SweepReport has no cell (%s, %s)", accel_spec.c_str(),
              network.c_str());
    return *cell;
}

SweepReport
SweepEngine::run(const SweepRequest& request) const
{
    if (request.grids.empty())
        throw std::invalid_argument("sweep has no accelerator grids");
    if (request.networks.empty())
        throw std::invalid_argument("sweep has no networks");

    // Expand every accelerator grid; expandSpecGridList dedupes cells
    // that several grids cover and enforces the cell cap.
    std::vector<AccelSpec> designs;
    std::set<std::string> seen;
    for (const auto& spec_string : expandSpecGridList(request.grids)) {
        seen.insert(spec_string);
        designs.push_back(parseAccelSpec(spec_string));
    }
    if (designs.empty())
        throw std::invalid_argument("sweep grids expand to no designs");

    SweepReport report;
    report.baseline = request.baseline.empty()
                          ? designs.front().str()
                          : parseAccelSpec(request.baseline).str();
    if (seen.insert(report.baseline).second)
        designs.push_back(parseAccelSpec(report.baseline));

    std::set<std::string> option_names;
    for (const auto& design : designs)
        for (const auto& [name, value] : design.options)
            option_names.insert(name);
    report.option_columns.assign(option_names.begin(),
                                 option_names.end());

    // One batched job matrix; the SimEngine validates every design
    // against the registry (unknown keys/options throw here, before
    // any simulation) and shares each synthesized workload across all
    // of them.
    SimRequest sim;
    for (const auto& design : designs)
        sim.accels.push_back(design.str());
    sim.networks = expandNetworkGrids(request.networks);
    // The per-axis caps bound each expansion; the matrix itself must
    // also stay bounded or a 4096 x 4096 typo fans out ~16.7M cells.
    if (designs.size() * sim.networks.size() > kMaxGridCells)
        throw std::invalid_argument(
            "sweep matrix expands to " +
            std::to_string(designs.size()) + " designs x " +
            std::to_string(sim.networks.size()) +
            " networks, more than " + std::to_string(kMaxGridCells) +
            " cells");
    sim.seed = request.seed;
    sim.batch = request.batch;
    sim.energy = request.energy;
    sim.energy_params = request.energy_params;
    sim.threads = request.threads;
    sim.compiled_cache = request.compiled_cache;
    sim.cache_budget_bytes = request.cache_budget_bytes;
    sim.cache_dir = request.cache_dir;
    const SimReport sim_report = SimEngine().run(sim);
    report.compile_cache = sim_report.compile_cache;
    report.prepare_ms = sim_report.prepare_ms;
    report.sim_ms = sim_report.sim_ms;
    report.synth_layers = sim_report.synth_layers;
    report.synth_ms = sim_report.synth_ms;

    const std::size_t n_nets = sim.networks.size();
    report.cells.resize(sim_report.runs.size());
    for (std::size_t i = 0; i < sim_report.runs.size(); ++i) {
        const AccelSpec& design = designs[i / n_nets];
        SweepCell& cell = report.cells[i];
        cell.accel_spec = design.str();
        cell.accel_key = design.key;
        cell.accel_options = design.options;
        cell.network = sim_report.runs[i].network;
        cell.is_baseline = cell.accel_spec == report.baseline;
        cell.result = sim_report.runs[i].result;
        cell.energy = sim_report.runs[i].energy;
    }

    // Derived columns, per network: speedup and energy gain against
    // the baseline design's cell, EDP, and the Pareto front over
    // (cycles, energy) — (cycles, DRAM bytes) when energy is off, so
    // the front still trades latency against a cost axis.
    std::size_t base_design = 0;
    for (std::size_t d = 0; d < designs.size(); ++d)
        if (designs[d].str() == report.baseline)
            base_design = d;
    for (std::size_t n = 0; n < n_nets; ++n) {
        const SweepCell& baseline =
            report.cells[base_design * n_nets + n];

        std::vector<std::pair<double, double>> points;
        points.reserve(designs.size());
        for (std::size_t d = 0; d < designs.size(); ++d) {
            SweepCell& cell = report.cells[d * n_nets + n];
            const double cycles =
                static_cast<double>(cell.result.total_cycles);
            cell.speedup =
                static_cast<double>(baseline.result.total_cycles) /
                cycles;
            if (request.energy) {
                cell.energy_gain =
                    baseline.energy.totalPj() / cell.energy.totalPj();
                cell.edp = cell.energy.totalPj() * cycles;
            }
            points.emplace_back(
                cycles, request.energy
                            ? cell.energy.totalPj()
                            : static_cast<double>(
                                  cell.result.traffic.dramBytes()));
        }
        const std::vector<bool> front = paretoFront(points);
        for (std::size_t d = 0; d < designs.size(); ++d)
            report.cells[d * n_nets + n].pareto = front[d];
    }

    return report;
}

} // namespace loas
