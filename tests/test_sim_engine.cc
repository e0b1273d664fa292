/** @file Tests for the batched multi-threaded simulation engine. */

#include <gtest/gtest.h>

#include <atomic>
#include <ctime>
#include <filesystem>
#include <stdexcept>

#include "api/json.hh"
#include "api/sim_engine.hh"
#include "core/loas_sim.hh"
#include "workload/artifact_store.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

/** A small two-network request covering plain and FT workloads. */
SimRequest
smallRequest()
{
    SimRequest request;
    request.accels = {"sparten", "loas", "loas-ft", "gamma?pes=8"};
    request.networks =
        {NetworkSpec{"net-a", {tables::alexnetL4(), tables::vgg16L8()}},
         NetworkSpec{"net-b", {tables::resnet19L19()}}};
    request.seed = 5;
    return request;
}

bool
identicalRuns(const SimRun& a, const SimRun& b)
{
    // Bit-identical simulation and energy outcomes; the JSON form
    // covers every scalar field, traffic category and op counter.
    return json::toJson(a) == json::toJson(b);
}

TEST(SimEngine, ProducesFullJobMatrixInRequestOrder)
{
    const SimRequest request = smallRequest();
    const SimReport report = SimEngine().run(request);
    ASSERT_EQ(report.runs.size(),
              request.accels.size() * request.networks.size());
    std::size_t i = 0;
    for (const auto& accel : request.accels) {
        for (const auto& net : request.networks) {
            EXPECT_EQ(report.runs[i].accel_spec, accel);
            EXPECT_EQ(report.runs[i].network, net.name);
            EXPECT_GT(report.runs[i].result.total_cycles, 0u);
            EXPECT_GT(report.runs[i].energy.totalPj(), 0.0);
            ++i;
        }
    }
    EXPECT_EQ(&report.at("loas", "net-b"),
              report.find("loas", "net-b"));
    EXPECT_EQ(report.find("loas", "no-such-network"), nullptr);
}

TEST(SimEngine, MultiThreadedRunIsBitIdenticalToSerial)
{
    SimRequest request = smallRequest();
    request.threads = 1;
    const SimReport serial = SimEngine().run(request);
    request.threads = 8;
    const SimReport threaded = SimEngine().run(request);

    ASSERT_EQ(serial.runs.size(), threaded.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        SCOPED_TRACE(serial.runs[i].accel_spec + " / " +
                     serial.runs[i].network);
        EXPECT_TRUE(identicalRuns(serial.runs[i], threaded.runs[i]));
    }
}

TEST(SimEngine, MatchesDirectSimulatorInvocation)
{
    SimRequest request;
    request.accels = {"loas"};
    request.networks = {tables::alexnet()};
    request.seed = 11;
    const SimReport report = SimEngine().run(request);

    LoasSim direct;
    const RunResult expected = direct.runNetwork(
        generateNetwork(tables::alexnet(), 11), tables::alexnet().name);
    const RunResult& got = report.runs.front().result;
    EXPECT_EQ(got.total_cycles, expected.total_cycles);
    EXPECT_EQ(got.compute_cycles, expected.compute_cycles);
    EXPECT_EQ(got.traffic.dramBytes(), expected.traffic.dramBytes());
    EXPECT_EQ(got.ops.total(), expected.ops.total());
}

TEST(SimEngine, FtDesignsGetTheFtWorkload)
{
    SimRequest request;
    request.accels = {"loas", "loas-ft"};
    request.networks = {NetworkSpec{"layer", {tables::vgg16L8()}}};
    request.seed = 3;
    const SimReport report = SimEngine().run(request);

    // The FT-preprocessed workload has more silent neurons, so the
    // fully temporal-parallel design does strictly less join work.
    EXPECT_LT(report.at("loas-ft", "layer").result.ops.total(),
              report.at("loas", "layer").result.ops.total());
}

TEST(SimEngine, RejectsBadRequestsBeforeSimulating)
{
    SimRequest request = smallRequest();
    request.accels.push_back("no-such-accel");
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
    request = smallRequest();
    request.accels.push_back("loas?bogus=1");
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
    // Duplicate network names would silently share compiled operands
    // (and alias report cells), so they are rejected up front.
    request = smallRequest();
    request.networks.push_back(
        NetworkSpec{"net-a", {tables::vgg16L8()}});
    EXPECT_THROW(SimEngine().run(request), std::invalid_argument);
}

/** The Table II AlexNet under four plain-workload designs, optionally
 *  with loas-ft on the FT workload. */
SimRequest
alexnetRequest(bool with_ft)
{
    SimRequest request;
    request.accels = {"sparten", "gospa", "gamma", "loas"};
    if (with_ft)
        request.accels.push_back("loas-ft");
    request.networks = {tables::alexnet()};
    request.seed = 21;
    request.threads = 2;
    return request;
}

/** CPU seconds a POSIX CPU-time clock reads now. */
double
cpuSeconds(clockid_t clock)
{
    timespec now{};
    clock_gettime(clock, &now);
    return static_cast<double>(now.tv_sec) +
           1e-9 * static_cast<double>(now.tv_nsec);
}

TEST(SimEngine, OneThreadRunsOnTheCallingThread)
{
    // threads = 1 is the whole budget: a cold run's synthesis, prepare
    // and execute all spend their CPU on the calling thread.
    SimRequest request = alexnetRequest(false);
    request.threads = 1;
    const double process_start = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double thread_start = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    SimEngine().run(request);
    const double thread_s =
        cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - thread_start;
    const double other_s = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
                           process_start - thread_s;
    EXPECT_LT(other_s, 0.05 * thread_s)
        << "other threads spent " << other_s * 1e3
        << " ms of CPU against the calling thread's " << thread_s * 1e3
        << " ms";
}

TEST(SimEngineSynthesis, ColdRunSynthesizesEachWorkloadOnce)
{
    const std::size_t layers = tables::alexnet().layers.size();
    ASSERT_EQ(layers, 7u);

    // Four format families share one plain synthesis...
    const SimReport plain = SimEngine().run(alexnetRequest(false));
    EXPECT_EQ(plain.synth_layers, layers);
    EXPECT_GT(plain.synth_ms, 0.0);
    EXPECT_EQ(plain.compile_cache.misses, 4 * layers);

    // ...and loas-ft adds the FT variant, once.
    const SimReport with_ft = SimEngine().run(alexnetRequest(true));
    EXPECT_EQ(with_ft.synth_layers, 2 * layers);
    EXPECT_EQ(with_ft.compile_cache.misses, 5 * layers);
}

/** All five Table II designs on AlexNet's two FC layers. */
SimRequest
twoLayerRequest()
{
    SimRequest request = alexnetRequest(true);
    const NetworkSpec alexnet = tables::alexnet();
    request.networks = {NetworkSpec{
        "alexnet-fc", {alexnet.layers[5], alexnet.layers[6]}}};
    return request;
}

TEST(SimEngineSynthesis, WarmRunsSynthesizeNothing)
{
    const SimRequest cold_request = twoLayerRequest();
    const std::size_t layers = cold_request.networks[0].layers.size();
    const std::string cold =
        json::toJson(SimEngine().run(cold_request));

    // Warm memory: a shared cache serves every layer.
    CompiledCache shared;
    SimRequest request = cold_request;
    request.compiled_cache = &shared;
    SimEngine().run(request);
    const SimReport warm_memory = SimEngine().run(request);
    EXPECT_EQ(warm_memory.synth_layers, 0u);
    EXPECT_EQ(warm_memory.synth_ms, 0.0);
    EXPECT_EQ(warm_memory.compile_cache.misses, 0u);
    EXPECT_EQ(json::toJson(warm_memory), cold);

    // Warm disk: a fresh private cache replays every layer from its
    // disk record, loading no artifact...
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "loas-synth-disk";
    std::filesystem::remove_all(dir);
    request = cold_request;
    request.cache_dir = dir.string();
    const SimReport cold_disk = SimEngine().run(request);
    EXPECT_EQ(cold_disk.synth_layers, 2 * layers);
    EXPECT_EQ(cold_disk.compile_cache.result_disk_writes,
              layers * request.accels.size());
    const SimReport warm_records = SimEngine().run(request);
    EXPECT_EQ(warm_records.synth_layers, 0u);
    EXPECT_EQ(warm_records.synth_ms, 0.0);
    EXPECT_EQ(warm_records.compile_cache.result_disk_hits,
              cold_disk.compile_cache.result_disk_writes);
    EXPECT_EQ(warm_records.compile_cache.disk_hits, 0u);
    EXPECT_EQ(warm_records.compile_cache.misses, 0u);
    EXPECT_EQ(json::toJson(warm_records), cold);

    // ...and without the records it loads every artifact from disk.
    const auto remove_records = [&] {
        for (const auto& entry : std::filesystem::directory_iterator(dir))
            if (entry.path().extension() == ArtifactStore::kRecordSuffix)
                std::filesystem::remove(entry.path());
    };
    remove_records();
    const SimReport warm_disk = SimEngine().run(request);
    EXPECT_EQ(warm_disk.synth_layers, 0u);
    EXPECT_EQ(warm_disk.synth_ms, 0.0);
    EXPECT_EQ(warm_disk.compile_cache.disk_hits,
              cold_disk.compile_cache.disk_writes);
    EXPECT_EQ(json::toJson(warm_disk), cold);

    // One artifact missing: its network is synthesized once, for the
    // one compile, and every other layer still loads from disk.
    remove_records();
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ArtifactStore::kFileSuffix) {
            std::filesystem::remove(entry.path());
            break;
        }
    const SimReport one_missing = SimEngine().run(request);
    EXPECT_EQ(one_missing.synth_layers, layers);
    EXPECT_EQ(one_missing.compile_cache.misses, 1u);
    EXPECT_EQ(one_missing.compile_cache.disk_hits,
              cold_disk.compile_cache.disk_writes - 1);
    EXPECT_EQ(json::toJson(one_missing), cold);
    std::filesystem::remove_all(dir);
}

TEST(SimEngineSynthesis, CancellationStopsTheRun)
{
    // A token set before the run stops it before any synthesis or
    // compile: the shared cache records no lookup at all.
    CompiledCache shared;
    std::atomic<bool> cancel{true};
    SimRequest request = twoLayerRequest();
    request.compiled_cache = &shared;
    request.cancel = &cancel;
    EXPECT_THROW(SimEngine().run(request), SimCancelled);
    EXPECT_EQ(shared.stats().misses, 0u);
    EXPECT_EQ(shared.stats().hits, 0u);

    // Cleared, the same request runs to completion.
    cancel = false;
    const SimReport report = SimEngine().run(request);
    EXPECT_EQ(report.runs.size(), 5u);
    EXPECT_EQ(report.synth_layers, 2 * request.networks[0].layers.size());
}

TEST(SimEngineRecords, RepeatedRunReplaysEveryLayer)
{
    const SimRequest cold_request = twoLayerRequest();
    const std::size_t layers = cold_request.networks[0].layers.size();
    const std::size_t cells = cold_request.accels.size();
    const std::string cold =
        json::toJson(SimEngine().run(cold_request));

    CompiledCache shared;
    SimRequest request = cold_request;
    request.compiled_cache = &shared;
    const SimReport first = SimEngine().run(request);
    const SimReport repeat = SimEngine().run(request);
    EXPECT_EQ(first.compile_cache.result_hits, 0u);
    EXPECT_EQ(repeat.compile_cache.result_hits, layers * cells);

    // Artifact lookups count exactly as they would without records:
    // five designs of five (family, ft) keys, compiled once, then hit.
    EXPECT_EQ(first.compile_cache.misses, layers * cells);
    EXPECT_EQ(first.compile_cache.hits, 0u);
    EXPECT_EQ(first.synth_layers, 2 * layers);
    EXPECT_EQ(repeat.compile_cache.misses, 0u);
    EXPECT_EQ(repeat.compile_cache.hits, layers * cells);
    EXPECT_EQ(repeat.synth_layers, 0u);

    EXPECT_EQ(json::toJson(first), cold);
    EXPECT_EQ(json::toJson(repeat), cold);
}

TEST(SimEngineRecords, DesignsSharingAnArtifactNeverShareRecords)
{
    const std::vector<std::vector<std::string>> pairs = {
        {"loas?pes=8", "loas?pes=16"},
        {"sparten?fused=0", "sparten?fused=1"}};
    for (const auto& designs : pairs) {
        CompiledCache shared;
        for (const auto& design : designs) {
            SCOPED_TRACE(design);
            SimRequest request;
            request.accels = {design};
            request.networks = {NetworkSpec{
                "two-layers", {tables::alexnetL4(), tables::vgg16L8()}}};
            request.seed = 19;
            const std::string own = json::toJson(SimEngine().run(request));
            request.compiled_cache = &shared;
            const SimReport report = SimEngine().run(request);
            EXPECT_EQ(report.compile_cache.result_hits, 0u);
            EXPECT_EQ(json::toJson(report), own);
        }
        // The second design executed the first one's artifacts.
        EXPECT_EQ(shared.stats().misses, 2u);
        EXPECT_EQ(shared.stats().hits, 2u);
    }
}

/** Two LoAS designs on one layer, sharing one artifact in `cache`. */
SimRequest
pesRequest(const std::string& network, const LayerSpec& layer,
           CompiledCache* cache)
{
    SimRequest request;
    request.accels = {"loas?pes=8", "loas?pes=16"};
    request.networks = {NetworkSpec{network, {layer}}};
    request.seed = 7;
    request.compiled_cache = cache;
    return request;
}

/** What a pesRequest leaves resident: its artifact and two records. */
std::uint64_t
residentBytes(const SimRequest& request)
{
    const auto layers = generateNetwork(request.networks[0], request.seed);
    std::uint64_t bytes = LoasSim().prepare(layers[0]).bytes;
    for (const auto& design : request.accels)
        bytes += CompiledCache::recordBytes(design, 1);
    return bytes;
}

TEST(SimEngineRecords, BytesTrackArtifactsAndRecordsThroughEviction)
{
    CompiledCache shared;
    const SimRequest a = pesRequest("net-a", tables::alexnetL4(), &shared);
    const SimRequest b = pesRequest("net-b", tables::vgg16L8(), &shared);
    const std::uint64_t bytes_a = residentBytes(a);
    const std::uint64_t bytes_b = residentBytes(b);

    const std::string cold_a = json::toJson(SimEngine().run(a));
    EXPECT_EQ(shared.stats().bytes, bytes_a);
    EXPECT_EQ(SimEngine().run(a).compile_cache.result_hits, 2u);
    EXPECT_EQ(shared.stats().bytes, bytes_a); // a replay adds nothing

    // Room for one request's artifact and records, not both: b's
    // second record evicts finished net-a, records included.
    shared.setByteBudget(bytes_a + bytes_b - 1);
    EXPECT_EQ(SimEngine().run(b).compile_cache.evictions, 1u);
    EXPECT_EQ(shared.stats().entries, 1u);
    EXPECT_EQ(shared.stats().bytes, bytes_b);

    // So net-a recompiles and re-executes, and evicts net-b in turn.
    const SimReport again = SimEngine().run(a);
    EXPECT_EQ(again.compile_cache.misses, 1u);
    EXPECT_EQ(again.compile_cache.result_hits, 0u);
    EXPECT_EQ(shared.stats().bytes, bytes_a);
    EXPECT_EQ(json::toJson(again), cold_a);

    shared.clear();
    EXPECT_EQ(shared.stats().bytes, 0u);
    EXPECT_EQ(SimEngine().run(a).compile_cache.result_hits, 0u);
    EXPECT_EQ(shared.stats().bytes, bytes_a);
}

TEST(SimEngineJson, ReportSerializesEveryRun)
{
    SimRequest request;
    request.accels = {"sparten", "loas"};
    request.networks = {NetworkSpec{"layer", {tables::alexnetL4()}}};
    request.seed = 9;
    const SimReport report = SimEngine().run(request);
    const std::string out = json::toJson(report);

    EXPECT_NE(out.find("\"runs\": ["), std::string::npos);
    EXPECT_NE(out.find("\"accel_spec\": \"sparten\""),
              std::string::npos);
    EXPECT_NE(out.find("\"accel\": \"LoAS\""), std::string::npos);
    EXPECT_NE(out.find("\"total_cycles\": "), std::string::npos);
    EXPECT_NE(out.find("\"dram_read_bytes\": "), std::string::npos);
    EXPECT_NE(out.find("\"total_pj\": "), std::string::npos);
}

TEST(RunResultAggregation, StaticScaleAdoptsFirstWorkBearingSummand)
{
    RunResult total;
    RunResult empty;          // zero work: scale is immaterial
    empty.static_scale = 0.25;
    RunResult systolic;
    systolic.compute_cycles = 10;
    systolic.total_cycles = 10;
    systolic.static_scale = 0.2;

    total += empty;
    total += systolic;
    total += systolic;
    EXPECT_DOUBLE_EQ(total.static_scale, 0.2);
    EXPECT_EQ(total.total_cycles, 20u);
}

TEST(SimEngineJson, EscapesStrings)
{
    EXPECT_EQ(json::quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

} // namespace
} // namespace loas
