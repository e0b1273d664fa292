#include "accel/accelerator.hh"

#include "common/logging.hh"
#include "common/parallel.hh"

namespace loas {

RunResult
Accelerator::executeBatch(const CompiledLayer& compiled, int threads,
                          std::vector<RunResult>* per_input)
{
    const std::size_t batch = compiled.batch == 0 ? 1 : compiled.batch;
    std::vector<RunResult>& slots =
        per_input != nullptr ? *per_input : batch_slots_;
    slots.resize(batch);

    // Pre-size every per-worker scratch pool before the parallel
    // section; the loop body may then only index, never grow.
    const std::size_t workers =
        (threads <= 1 || batch <= 1)
            ? 1
            : std::min<std::size_t>(static_cast<std::size_t>(threads),
                                    batch);
    reserveWorkers(workers);

    parallelForWorkers(batch, threads,
                       [&](std::size_t worker, std::size_t input) {
                           slots[input] =
                               executeInput(compiled, input, worker);
                       });

    // Deterministic reduction: fixed per-input slots, summed in input
    // order — the aggregate is bit-identical at any thread count.
    RunResult total;
    total.accel = name();
    total.workload = compiled.spec.name;
    for (const auto& slot : slots)
        total += slot;
    return total;
}

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
