/**
 * @file
 * Invariants of the batch axis (SimRequest::batch):
 *
 *  1. batch=1 is byte-identical to the pre-batching pipeline: the
 *     generator emits the same tensors, and the report JSON carries
 *     no "inputs" field.
 *  2. Batch-prefix property: input b is the same tensor (and the same
 *     RunResult) whatever the total batch size, so input 0 of any
 *     batch equals the batch=1 run.
 *  3. The engine's batch fan-out is thread-count invariant: aggregate
 *     and per-input results are bit-identical at any thread count.
 *  4. The serve protocol round-trips "batch" (serve/2) and old
 *     clients that omit it get batch 1 (serve/1 behavior).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/json.hh"
#include "api/registry.hh"
#include "api/sim_engine.hh"
#include "serve/json_parse.hh"
#include "serve/protocol.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

void
expectSameResult(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.compute_cycles, b.compute_cycles);
    EXPECT_EQ(a.dram_cycles, b.dram_cycles);
    EXPECT_EQ(a.traffic.dramBytes(), b.traffic.dramBytes());
    EXPECT_EQ(a.traffic.sramBytes(), b.traffic.sramBytes());
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.ops.total(), b.ops.total());
}

// --- 1. batch=1 byte-identity ----------------------------------------

TEST(Batch, BatchOneGeneratorIsIdentical)
{
    const LayerSpec spec = tables::alexnetL4();
    for (const bool ft : {false, true}) {
        const LayerData legacy = generateLayer(spec, 101, ft);
        const LayerData batched = generateLayer(spec, 101, ft, 1);
        EXPECT_EQ(batched.batchSize(), 1u);
        EXPECT_TRUE(batched.extra_inputs.empty());
        EXPECT_TRUE(legacy.spikes == batched.spikes);
        EXPECT_TRUE(legacy.weights == batched.weights);
    }
}

TEST(Batch, BatchOneReportJsonHasNoInputsField)
{
    SimRequest request;
    request.accels = {"loas"};
    request.networks = {{"alexnet-l4", {tables::alexnetL4()}}};
    request.energy = false;
    const SimReport report = SimEngine().run(request);
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_TRUE(report.runs[0].per_input.empty());
    EXPECT_EQ(json::toJson(report).find("\"inputs\""), std::string::npos);
}

TEST(Batch, EngineRejectsBatchZero)
{
    SimRequest request;
    request.accels = {"loas"};
    request.networks = {{"alexnet-l4", {tables::alexnetL4()}}};
    request.batch = 0;
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
}

// --- 2. Batch-prefix property ----------------------------------------

TEST(Batch, InputTensorsIndependentOfBatchSize)
{
    const LayerSpec spec = tables::vgg16L8();
    const LayerData small = generateLayer(spec, 101, false, 2);
    const LayerData large = generateLayer(spec, 101, false, 5);
    ASSERT_EQ(small.batchSize(), 2u);
    ASSERT_EQ(large.batchSize(), 5u);
    EXPECT_TRUE(small.weights == large.weights);
    for (std::size_t b = 0; b < small.batchSize(); ++b)
        EXPECT_TRUE(small.input(b) == large.input(b));
    // Distinct inputs really are distinct workloads.
    EXPECT_FALSE(large.input(0) == large.input(1));
    EXPECT_FALSE(large.input(1) == large.input(2));
}

TEST(Batch, InputZeroMatchesBatchOneExecution)
{
    const auto& registry = AcceleratorRegistry::instance();
    const LayerSpec spec = tables::alexnetL4();
    for (const auto& key : registry.keys()) {
        SCOPED_TRACE(key);
        const bool ft = registry.entry(key).ft_workload;
        const auto single = registry.make(key);
        const CompiledLayer c1 =
            single->prepare(generateLayer(spec, 101, ft, 1));
        const RunResult solo = single->execute(c1);

        const auto batched = registry.make(key);
        const CompiledLayer c4 =
            batched->prepare(generateLayer(spec, 101, ft, 4));
        EXPECT_EQ(c4.batch, 4u);
        std::vector<RunResult> per_input;
        for (std::size_t b = 0; b < c4.batch; ++b)
            per_input.push_back(batched->executeInput(c4, b));
        ASSERT_EQ(per_input.size(), 4u);
        expectSameResult(per_input[0], solo);
    }
}

// --- 3. Thread-count invariance --------------------------------------

TEST(Batch, EngineBatchIsThreadCountInvariant)
{
    // One batch-3 cell: at 4 threads the engine gives the cell's whole
    // share to its batch and runs three instances, one per input.
    for (const auto& key : AcceleratorRegistry::instance().keys()) {
        SCOPED_TRACE(key);
        SimRequest request;
        request.accels = {key};
        request.networks = {{"alexnet-l4", {tables::alexnetL4()}}};
        request.batch = 3;
        request.threads = 1;
        const SimReport serial = SimEngine().run(request);
        request.threads = 4;
        const SimReport threaded = SimEngine().run(request);

        ASSERT_EQ(threaded.runs.size(), 1u);
        EXPECT_EQ(threaded.runs[0].per_input.size(), 3u);
        EXPECT_EQ(json::toJson(threaded), json::toJson(serial));
    }
}

TEST(Batch, AggregateSumsPerInputCycles)
{
    SimRequest request;
    request.accels = {"loas"};
    request.networks = {{"alexnet-l4", {tables::alexnetL4()}}};
    request.batch = 4;
    request.energy = false;
    const SimReport report = SimEngine().run(request);
    ASSERT_EQ(report.runs.size(), 1u);
    const SimRun& run = report.runs[0];
    ASSERT_EQ(run.per_input.size(), 4u);
    std::uint64_t cycles = 0, ops = 0;
    for (const RunResult& r : run.per_input) {
        cycles += r.total_cycles;
        ops += r.ops.total();
    }
    EXPECT_EQ(run.result.total_cycles, cycles);
    EXPECT_EQ(run.result.ops.total(), ops);
    EXPECT_NE(json::toJson(report).find("\"inputs\""), std::string::npos);
}

TEST(Batch, RepeatedRunReplaysPerInputResults)
{
    SimRequest request;
    request.accels = {"loas", "sparten"};
    request.networks = {
        {"two-layers", {tables::alexnetL4(), tables::vgg16L8()}}};
    request.batch = 3;
    request.seed = 13;
    request.threads = 2;
    const SimReport cold = SimEngine().run(request);

    CompiledCache shared;
    request.compiled_cache = &shared;
    SimEngine().run(request);
    const SimReport repeat = SimEngine().run(request);
    EXPECT_EQ(repeat.compile_cache.result_hits, 2u * 2u);
    ASSERT_EQ(repeat.runs.size(), cold.runs.size());
    for (std::size_t i = 0; i < cold.runs.size(); ++i) {
        SCOPED_TRACE(cold.runs[i].accel_spec);
        expectSameResult(repeat.runs[i].result, cold.runs[i].result);
        ASSERT_EQ(repeat.runs[i].per_input.size(), 3u);
        for (std::size_t b = 0; b < 3; ++b)
            expectSameResult(repeat.runs[i].per_input[b],
                             cold.runs[i].per_input[b]);
    }
    EXPECT_EQ(json::toJson(repeat), json::toJson(cold));
}

// --- 4. Serve protocol round-trip ------------------------------------

TEST(Batch, ProtocolDefaultsToBatchOne)
{
    const serve::RunSpec spec = serve::parseRunSpec(serve::parseJson(
        "{\"cmd\": \"submit\", \"accel\": \"loas\"}"));
    EXPECT_EQ(spec.batch, 1u);
    EXPECT_EQ(serve::toSimRequest(spec).batch, 1u);
}

TEST(Batch, ProtocolRoundTripsBatch)
{
    const serve::RunSpec spec = serve::parseRunSpec(serve::parseJson(
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\", \"batch\": 6}"));
    EXPECT_EQ(spec.batch, 6u);
    EXPECT_EQ(serve::toSimRequest(spec).batch, 6u);
}

TEST(Batch, ProtocolRejectsBatchZero)
{
    EXPECT_THROW(serve::parseRunSpec(serve::parseJson(
                     "{\"cmd\": \"submit\", \"batch\": 0}")),
                 std::invalid_argument);
}

} // namespace
} // namespace loas
