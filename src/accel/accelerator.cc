#include "accel/accelerator.hh"

#include "common/logging.hh"

namespace loas {

RunResult
Accelerator::runLayer(const LayerData& layer)
{
    return execute(prepare(layer));
}

RunResult
Accelerator::runNetwork(const std::vector<LayerData>& layers,
                        const std::string& workload_name)
{
    std::vector<std::shared_ptr<const LayerResults>> results;
    results.reserve(layers.size());
    for (const auto& layer : layers)
        results.push_back(
            std::make_shared<const LayerResults>(1, runLayer(layer)));
    return reduceNetwork(results, workload_name);
}

RunResult
Accelerator::reduceNetwork(
    const std::vector<std::shared_ptr<const LayerResults>>& layers,
    const std::string& workload_name,
    std::vector<RunResult>* per_input) const
{
    RunResult total;
    total.accel = name();
    total.workload = workload_name;
    if (per_input != nullptr)
        per_input->assign(layers.empty() ? 0 : layers.front()->size(),
                          total);
    for (const auto& inputs : layers) {
        if (per_input != nullptr && per_input->size() != inputs->size())
            fatal("network '%s': layer batch sizes disagree "
                  "(%zu vs %zu)",
                  workload_name.c_str(), per_input->size(),
                  inputs->size());
        for (std::size_t b = 0; b < inputs->size(); ++b) {
            total += (*inputs)[b];
            if (per_input != nullptr)
                (*per_input)[b] += (*inputs)[b];
        }
    }
    return total;
}

} // namespace loas
