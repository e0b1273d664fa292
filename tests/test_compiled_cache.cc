/**
 * @file
 * Tests for the two-phase prepare/execute pipeline and the shared
 * compiled-workload cache: hit/miss accounting, once-only concurrent
 * compilation, cross-variant (non-)sharing rules, the 9-cell sweep
 * acceptance criterion, thread-count-invariant sweep output with
 * the cache in the loop, and the result records memoized in artifact
 * slots.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "api/json.hh"
#include "api/sim_engine.hh"
#include "api/sweep.hh"
#include "api/sweep_io.hh"
#include "baselines/sparten.hh"
#include "common/fault.hh"
#include "core/loas_sim.hh"
#include "workload/artifact_store.hh"
#include "workload/compiled_cache.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

/** A compiled layer stub carrying only a footprint. */
CompiledLayer
stubLayer(std::size_t bytes)
{
    CompiledLayer compiled;
    compiled.family = "stub";
    compiled.bytes = bytes;
    return compiled;
}

TEST(CompiledCache, CountsHitsMissesEntriesAndBytes)
{
    CompiledCache cache;
    int compiles = 0;
    const auto compile_a = [&] {
        ++compiles;
        return stubLayer(100);
    };
    const auto compile_b = [&] {
        ++compiles;
        return stubLayer(40);
    };

    const auto a1 = cache.getOrCompile("a", compile_a);
    const auto a2 = cache.getOrCompile("a", compile_a);
    const auto b1 = cache.getOrCompile("b", compile_b);
    EXPECT_EQ(compiles, 2);
    EXPECT_EQ(a1.get(), a2.get()); // shared, not recompiled
    EXPECT_NE(a1.get(), b1.get());

    const CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 140u);
    EXPECT_GE(stats.compile_ms, 0.0);
}

TEST(CompiledCache, ClearDropsEntriesAndStats)
{
    CompiledCache cache;
    cache.getOrCompile("a", [] { return stubLayer(8); });
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);

    int compiles = 0;
    cache.getOrCompile("a", [&] {
        ++compiles;
        return stubLayer(8);
    });
    EXPECT_EQ(compiles, 1); // really gone, compiled again
}

TEST(CompiledCache, ConcurrentRequestsCompileExactlyOnce)
{
    CompiledCache cache;
    std::atomic<int> compiles{0};
    constexpr int kThreads = 8;

    std::vector<std::thread> pool;
    std::vector<std::shared_ptr<const CompiledLayer>> got(kThreads);
    pool.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
        pool.emplace_back([&, i] {
            got[i] = cache.getOrCompile("key", [&] {
                ++compiles;
                return stubLayer(16);
            });
        });
    for (auto& t : pool)
        t.join();

    EXPECT_EQ(compiles.load(), 1);
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(got[i].get(), got[0].get());
    const CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(CompiledCache, KeySeparatesEveryComponent)
{
    const std::string base =
        compiledLayerKey("net", 0, false, "loas", 4, 101);
    EXPECT_NE(base, compiledLayerKey("net2", 0, false, "loas", 4, 101));
    EXPECT_NE(base, compiledLayerKey("net", 1, false, "loas", 4, 101));
    EXPECT_NE(base, compiledLayerKey("net", 0, true, "loas", 4, 101));
    EXPECT_NE(base, compiledLayerKey("net", 0, false, "gamma", 4, 101));
    EXPECT_NE(base, compiledLayerKey("net", 0, false, "loas", 8, 101));
    EXPECT_NE(base, compiledLayerKey("net", 0, false, "loas", 4, 102));
}

TEST(CompiledCacheEviction, ByteBudgetEvictsLeastRecentlyUsed)
{
    CompiledCache cache;
    cache.setByteBudget(150);
    cache.getOrCompile("netA#l0", [] { return stubLayer(60); });
    cache.getOrCompile("netB#l0", [] { return stubLayer(60); });
    // Touch A: B becomes the least recently used entry.
    cache.getOrCompile("netA#l0", [] { return stubLayer(60); });
    cache.getOrCompile("netC#l0", [] { return stubLayer(60); });

    CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 120u);

    // A and C survived; B was evicted and recompiles.
    int compiles = 0;
    const auto count = [&] {
        ++compiles;
        return stubLayer(60);
    };
    cache.getOrCompile("netA#l0", count);
    EXPECT_EQ(compiles, 0);
    cache.setByteBudget(0); // lift the budget: no further eviction
    cache.getOrCompile("netB#l0", count);
    EXPECT_EQ(compiles, 1);
    cache.getOrCompile("netC#l0", count);
    EXPECT_EQ(compiles, 1);
}

TEST(CompiledCacheEviction, FinishedNetworkEntriesGoFirst)
{
    CompiledCache cache;
    cache.setByteBudget(150);
    cache.getOrCompile("netA#l0", [] { return stubLayer(60); });
    cache.getOrCompile("netB#l0", [] { return stubLayer(60); });
    // Plain LRU would evict A (the older entry); finishing B demotes
    // it below everything still live.
    cache.finishNetwork("netB");
    cache.getOrCompile("netC#l0", [] { return stubLayer(60); });

    EXPECT_EQ(cache.stats().evictions, 1u);
    int compiles = 0;
    const auto count = [&] {
        ++compiles;
        return stubLayer(60);
    };
    cache.setByteBudget(0);
    cache.getOrCompile("netA#l0", count);
    cache.getOrCompile("netC#l0", count);
    EXPECT_EQ(compiles, 0); // both survivors still resident
    cache.getOrCompile("netB#l0", count);
    EXPECT_EQ(compiles, 1); // the finished network was the victim
}

TEST(CompiledCacheEviction, OldestFinishedNetworkGoesFirst)
{
    // Two networks finished in turn: the squeeze evicts the one
    // finished longest ago, not the one that just finished.
    CompiledCache cache;
    cache.setByteBudget(150);
    cache.getOrCompile("netA#l0", [] { return stubLayer(60); });
    cache.finishNetwork("netA");
    cache.getOrCompile("netB#l0", [] { return stubLayer(60); });
    cache.finishNetwork("netB");
    cache.getOrCompile("netC#l0", [] { return stubLayer(60); });

    EXPECT_EQ(cache.stats().evictions, 1u);
    int compiles = 0;
    const auto count = [&] {
        ++compiles;
        return stubLayer(60);
    };
    cache.setByteBudget(0);
    cache.getOrCompile("netB#l0", count);
    cache.getOrCompile("netC#l0", count);
    EXPECT_EQ(compiles, 0); // netB and netC still resident
    cache.getOrCompile("netA#l0", count);
    EXPECT_EQ(compiles, 1); // netA, finished first, was the victim
}

TEST(CompiledCacheEviction, HitPromotesFinishedEntryBackToLive)
{
    CompiledCache cache;
    cache.setByteBudget(150);
    cache.getOrCompile("netA#l0", [] { return stubLayer(60); });
    cache.getOrCompile("netB#l0", [] { return stubLayer(60); });
    cache.finishNetwork("netA");
    // A is hit again: it rejoins the live pool, so the budget squeeze
    // falls back to plain LRU and evicts B.
    cache.getOrCompile("netA#l0", [] { return stubLayer(60); });
    cache.getOrCompile("netC#l0", [] { return stubLayer(60); });

    int compiles = 0;
    const auto count = [&] {
        ++compiles;
        return stubLayer(60);
    };
    cache.setByteBudget(0);
    cache.getOrCompile("netA#l0", count);
    EXPECT_EQ(compiles, 0);
    cache.getOrCompile("netB#l0", count);
    EXPECT_EQ(compiles, 1);
}

TEST(CompiledCacheEviction, OversizedEntryStaysResident)
{
    // A single artifact larger than the whole budget must still cache
    // (evicting it would thrash); everything else is pushed out.
    CompiledCache cache;
    cache.setByteBudget(50);
    cache.getOrCompile("small#l0", [] { return stubLayer(10); });
    cache.getOrCompile("huge#l0", [] { return stubLayer(400); });

    const CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytes, 400u);
    EXPECT_EQ(stats.evictions, 1u);

    int compiles = 0;
    cache.getOrCompile("huge#l0", [&] {
        ++compiles;
        return stubLayer(400);
    });
    EXPECT_EQ(compiles, 0);
}

TEST(CompiledCacheEviction, ClearThenReuseKeepsByteAccountingExact)
{
    // clear() resets gauges and counters through the same accounting
    // path as eviction, so `bytes` always equals the resident sum.
    CompiledCache cache;
    cache.setByteBudget(1000);
    cache.getOrCompile("a", [] { return stubLayer(100); });
    cache.getOrCompile("b", [] { return stubLayer(200); });
    EXPECT_EQ(cache.stats().bytes, 300u);
    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    cache.getOrCompile("c", [] { return stubLayer(40); });
    EXPECT_EQ(cache.stats().bytes, 40u);
    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
}

/** `inputs` stub results whose cycle counts start at `cycles`. */
LayerResults
stubResults(std::size_t inputs, std::uint64_t cycles)
{
    LayerResults results(inputs);
    for (auto& result : results)
        result.total_cycles = cycles++;
    return results;
}

/** An execute stub that counts its calls. */
struct CountingExecute
{
    std::size_t inputs = 1;
    std::uint64_t cycles = 1;
    std::atomic<int> calls{0};

    CompiledCache::Execute
    fn()
    {
        return [this](const CompiledLayer&) {
            ++calls;
            return stubResults(inputs, cycles);
        };
    }
};

TEST(CompiledCacheRecords, OneRecordPerDesignInTheArtifactSlot)
{
    CompiledCache cache;
    CountingExecute execute{2, 7};
    const auto compile = [] { return stubLayer(100); };
    const auto first = cache.getOrRun("a", "loas", compile, execute.fn());
    const auto again = cache.getOrRun("a", "loas", compile, execute.fn());
    const auto other =
        cache.getOrRun("a", "loas?pes=16", compile, execute.fn());
    EXPECT_EQ(execute.calls, 2); // one execute per design, then replayed
    EXPECT_EQ(first.get(), again.get());
    EXPECT_NE(first.get(), other.get());
    ASSERT_EQ(first->size(), 2u);
    EXPECT_EQ((*first)[1].total_cycles, 8u);

    // A record hit also counts as a hit on its artifact, and the third
    // call hit the artifact too; records' bytes join the slot's.
    const CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.result_hits, 1u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    const std::uint64_t records =
        CompiledCache::recordBytes("loas", 2) +
        CompiledCache::recordBytes("loas?pes=16", 2);
    EXPECT_EQ(stats.bytes, 100u + records);
}

TEST(CompiledCacheRecords, ExecuteRunsOnTheArtifactTheLookupReturns)
{
    CompiledCache cache;
    const auto artifact =
        cache.getOrCompile("a", [] { return stubLayer(40); });
    const CompiledLayer* executed = nullptr;
    cache.getOrRun(
        "a", "loas",
        []() -> CompiledLayer {
            ADD_FAILURE() << "a resident artifact was recompiled";
            return stubLayer(40);
        },
        [&](const CompiledLayer& layer) {
            executed = &layer;
            return stubResults(1, 3);
        });
    EXPECT_EQ(executed, artifact.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().result_hits, 0u);
}

/** `threads` concurrent getOrRun calls for one (key, spec); returns
 *  their attributed counters. */
std::vector<CompiledCache::Stats>
raceOneRecord(CompiledCache& cache, CountingExecute& execute, int threads)
{
    std::vector<std::thread> pool;
    std::vector<CompiledCache::Stats> attributed(threads);
    pool.reserve(threads);
    for (int i = 0; i < threads; ++i)
        pool.emplace_back([&, i] {
            cache.getOrRun(
                "key", "loas", [] { return stubLayer(16); }, execute.fn(),
                &attributed[i]);
        });
    for (auto& t : pool)
        t.join();
    return attributed;
}

TEST(CompiledCacheRecords, ConcurrentRequestsExecuteExactlyOnce)
{
    CompiledCache cache;
    CountingExecute execute{1, 5};
    constexpr int kThreads = 8;
    const auto attributed = raceOneRecord(cache, execute, kThreads);

    // Whoever lost the race hit the artifact and then the record.
    EXPECT_EQ(execute.calls.load(), 1);
    std::uint64_t hits = 0, result_hits = 0;
    for (const auto& stats : attributed) {
        hits += stats.hits;
        result_hits += stats.result_hits;
    }
    EXPECT_EQ(result_hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(hits, result_hits);
    EXPECT_EQ(cache.stats().result_hits, result_hits);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CompiledCacheRecords, ConcurrentRequestsOverADiskLevelExecuteOnce)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "loas-record-race";
    std::filesystem::remove_all(dir);
    CompiledCache cache;
    cache.setDiskDir(dir.string());
    CountingExecute execute{2, 9};
    constexpr int kThreads = 8;
    const auto attributed = raceOneRecord(cache, execute, kThreads);

    // Record-first lookup: a loser may replay the memory record or,
    // if it read the disk after the winner wrote it, the disk record
    // — never a second execute.
    EXPECT_EQ(execute.calls.load(), 1);
    std::uint64_t replayed = 0, written = 0;
    for (const auto& stats : attributed) {
        replayed += stats.result_hits + stats.result_disk_hits;
        written += stats.result_disk_writes;
    }
    EXPECT_EQ(replayed, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(written, 1u);
    EXPECT_EQ(cache.stats().disk_rejects, 0u);
    const ArtifactStore::LoadResult stored =
        ArtifactStore(dir.string()).loadRecord("key", "loas");
    ASSERT_NE(stored.results, nullptr);
    EXPECT_EQ(stored.results->size(), 2u);
    EXPECT_EQ((*stored.results)[1].total_cycles, 10u);
    std::filesystem::remove_all(dir);
}

TEST(CompiledCacheRecords, EvictionAndClearTakeTheRecordsAlong)
{
    const std::uint64_t record = CompiledCache::recordBytes("s", 1);
    CompiledCache cache;
    // Room for two artifacts with one record each, not three.
    cache.setByteBudget(2 * (60 + record) + 30);
    CountingExecute execute;
    const auto compile = [] { return stubLayer(60); };
    for (const char* key : {"netA#l0", "netB#l0"})
        cache.getOrRun(key, "s", compile, execute.fn());
    EXPECT_EQ(cache.stats().bytes, 2 * (60 + record));

    // netC pushes out the least recently used slot, netA, and its
    // record with it.
    cache.getOrCompile("netC#l0", compile);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().bytes, (60 + record) + 60);
    cache.setByteBudget(0);
    cache.getOrRun("netB#l0", "s", compile, execute.fn());
    EXPECT_EQ(execute.calls, 2); // netB's record survived
    cache.getOrRun("netA#l0", "s", compile, execute.fn());
    EXPECT_EQ(execute.calls, 3); // netA's did not
    EXPECT_EQ(cache.stats().bytes, 3 * 60 + 2 * record);

    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
    cache.getOrRun("netB#l0", "s", compile, execute.fn());
    EXPECT_EQ(execute.calls, 4); // cleared with its slot
    EXPECT_EQ(cache.stats().result_hits, 0u);
}

TEST(CompiledCacheRecords, RecordHitsKeepHotSlotsFromEviction)
{
    const std::uint64_t record = CompiledCache::recordBytes("s", 1);
    CompiledCache cache;
    // Room for two slots with their records, not three.
    cache.setByteBudget(2 * (60 + record) + 30);
    CountingExecute execute;
    const auto compile = [] { return stubLayer(60); };
    cache.getOrRun("hot#l0", "s", compile, execute.fn());
    cache.getOrRun("cold#l0", "s", compile, execute.fn());
    // Both requests finish, hot first: it is the eviction candidate
    // until its next use promotes it back to the live pool.
    cache.finishNetwork("hot");
    cache.finishNetwork("cold");

    // The hot request comes back and replays from memory...
    cache.getOrRun("hot#l0", "s", compile, execute.fn());
    EXPECT_EQ(cache.stats().result_hits, 1u);
    // ...so a fresh compile evicts the cold slot, not the hot one.
    cache.getOrRun("fresh#l0", "s", compile, execute.fn());
    EXPECT_EQ(cache.stats().evictions, 1u);
    cache.getOrRun("hot#l0", "s", compile, execute.fn());
    EXPECT_EQ(cache.stats().result_hits, 2u);
    EXPECT_EQ(execute.calls, 3);
    EXPECT_EQ(cache.stats().misses, 3u);
    cache.getOrRun("cold#l0", "s", compile, execute.fn());
    EXPECT_EQ(cache.stats().misses, 4u); // the cold slot went
}

TEST(CompiledCacheRecords, InsertFaultRetainsNeitherArtifactNorRecord)
{
    fault::reset();
    fault::configure("cache.insert=1");
    CompiledCache cache;
    CountingExecute execute{1, 9};
    for (int i = 0; i < 2; ++i)
        cache.getOrRun("insert-key", "loas",
                       [] { return stubLayer(32); }, execute.fn());
    fault::reset();
    EXPECT_EQ(execute.calls, 2);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().result_hits, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(PrepareExecute, RunLayerEqualsPreparePlusExecute)
{
    const LayerData layer = generateLayer(tables::alexnetL4(), 17);
    LoasSim one_shot;
    LoasSim two_phase;
    const RunResult direct = one_shot.runLayer(layer);
    const RunResult split = two_phase.execute(two_phase.prepare(layer));
    EXPECT_EQ(json::toJson(direct), json::toJson(split));
    EXPECT_EQ(one_shot.lastOutput(), two_phase.lastOutput());
}

TEST(PrepareExecute, ArtifactsAreSharedAcrossDesignVariants)
{
    // A layer compiled by one LoAS variant executes bit-identically on
    // another: prepare() output is hardware-option independent.
    const LayerData layer = generateLayer(tables::vgg16L8(), 23);
    LoasConfig narrow;
    narrow.num_pes = 8;
    LoasConfig wide;
    wide.num_pes = 64;
    LoasSim compiler(narrow);
    LoasSim runner(wide);

    const CompiledLayer compiled = compiler.prepare(layer);
    const RunResult shared = runner.execute(compiled);
    const RunResult direct = LoasSim(wide).runLayer(layer);
    EXPECT_EQ(json::toJson(shared), json::toJson(direct));
}

TEST(PrepareExecuteDeathTest, ExecuteRejectsForeignFamilies)
{
    const LayerData layer = generateLayer(tables::alexnetL4(), 3);
    SpartenSim sparten;
    const CompiledLayer foreign = sparten.prepare(layer);
    LoasSim loas;
    EXPECT_DEATH(loas.execute(foreign), "family");
}

TEST(SimEngineCache, SameFamilyDesignsCompileOnce)
{
    SimRequest request;
    request.accels = {"loas?pes=8", "loas?pes=16", "loas?pes=32"};
    request.networks = {NetworkSpec{"layer", {tables::alexnetL4()}}};
    request.seed = 7;
    const SimReport report = SimEngine().run(request);

    EXPECT_EQ(report.compile_cache.misses, 1u);
    EXPECT_EQ(report.compile_cache.hits, 2u);
    EXPECT_GT(report.compile_cache.bytes, 0u);
    EXPECT_GE(report.prepare_ms, 0.0);
    EXPECT_GT(report.sim_ms, 0.0);
}

TEST(SimEngineCache, FtVariantDoesNotShareWithPlain)
{
    // loas and loas-ft run differently-preprocessed workloads, so the
    // cache must keep their artifacts apart (one miss each, no hits).
    SimRequest request;
    request.accels = {"loas", "loas-ft"};
    request.networks = {NetworkSpec{"layer", {tables::vgg16L8()}}};
    request.seed = 7;
    const SimReport report = SimEngine().run(request);

    EXPECT_EQ(report.compile_cache.misses, 2u);
    EXPECT_EQ(report.compile_cache.hits, 0u);
}

TEST(SimEngineCache, DifferentFamiliesDoNotShare)
{
    SimRequest request;
    request.accels = {"loas", "sparten", "gamma"};
    request.networks = {NetworkSpec{"layer", {tables::alexnetL4()}}};
    request.seed = 7;
    const SimReport report = SimEngine().run(request);

    EXPECT_EQ(report.compile_cache.misses, 3u);
    EXPECT_EQ(report.compile_cache.hits, 0u);
}

TEST(SimEngineCache, SharedArtifactsKeepResultsBitIdentical)
{
    // The cached path must not change any simulated number relative to
    // direct one-shot invocation of each design.
    SimRequest request;
    request.accels = {"loas?pes=8", "loas?pes=64"};
    request.networks = {NetworkSpec{"layer", {tables::alexnetL4()}}};
    request.seed = 31;
    const SimReport report = SimEngine().run(request);

    const std::vector<LayerData> layers =
        generateNetwork(request.networks[0], 31);
    LoasConfig narrow;
    narrow.num_pes = 8;
    LoasConfig wide;
    wide.num_pes = 64;
    EXPECT_EQ(json::toJson(report.at("loas?pes=8", "layer").result),
              json::toJson(
                  LoasSim(narrow).runNetwork(layers, "layer")));
    EXPECT_EQ(json::toJson(report.at("loas?pes=64", "layer").result),
              json::toJson(LoasSim(wide).runNetwork(layers, "layer")));
}

/** The ISSUE acceptance sweep: 3 designs x 3 networks, one family. */
SweepRequest
nineCellSweep()
{
    SweepRequest request;
    request.grids = {"loas?pes=16,32,64&t=4"};
    request.networks = {"alexnet-l4", "vgg16-l8", "resnet19-l19"};
    request.seed = 11;
    return request;
}

TEST(SweepEngineCache, NineCellSweepCompilesOncePerLayerKey)
{
    const SweepReport report = SweepEngine().run(nineCellSweep());
    ASSERT_EQ(report.cells.size(), 9u);

    // One compilation per (network, layer, family, timesteps) key —
    // three networks of one layer each — not one per cell.
    EXPECT_EQ(report.compile_cache.misses, 3u);
    EXPECT_EQ(report.compile_cache.hits, 6u);
    EXPECT_EQ(report.compile_cache.entries, 3u);
    for (const auto& cell : report.cells)
        EXPECT_GT(cell.result.total_cycles, 0u);
}

TEST(SweepEngineCache, ThreadedSweepIsBitIdenticalToSerial)
{
    SweepRequest request = nineCellSweep();
    request.threads = 1;
    const SweepReport serial = SweepEngine().run(request);
    request.threads = 8;
    const SweepReport threaded = SweepEngine().run(request);

    EXPECT_EQ(toCsv(serial), toCsv(threaded));
    EXPECT_EQ(json::toJson(serial), json::toJson(threaded));
    // Cache accounting is thread-count invariant too: the per-slot
    // mutex makes compilation once-only under any schedule.
    EXPECT_EQ(serial.compile_cache.misses,
              threaded.compile_cache.misses);
    EXPECT_EQ(serial.compile_cache.hits, threaded.compile_cache.hits);
    EXPECT_EQ(serial.compile_cache.bytes,
              threaded.compile_cache.bytes);
}

TEST(ProcessCache, PersistsArtifactsAcrossEngineRuns)
{
    // The request-supplied cache outlives SimEngine::run: the second
    // run recompiles nothing and reports pure hits, with per-run
    // counters delta'd against the shared cache's history.
    CompiledCache shared;
    SimRequest request;
    request.accels = {"loas?pes=8", "loas?pes=16"};
    request.networks = {NetworkSpec{"layer", {tables::alexnetL4()}}};
    request.seed = 7;
    request.compiled_cache = &shared;

    const SimReport first = SimEngine().run(request);
    EXPECT_EQ(first.compile_cache.misses, 1u);
    EXPECT_EQ(first.compile_cache.hits, 1u);

    const SimReport second = SimEngine().run(request);
    EXPECT_EQ(second.compile_cache.misses, 0u);
    EXPECT_EQ(second.compile_cache.hits, 2u);
    EXPECT_EQ(second.compile_cache.compile_ms, 0.0);
    EXPECT_EQ(json::toJson(first.runs[0].result),
              json::toJson(second.runs[0].result));

    // A different seed is a different workload: no false sharing.
    request.seed = 8;
    const SimReport reseeded = SimEngine().run(request);
    EXPECT_EQ(reseeded.compile_cache.misses, 1u);
}

TEST(ProcessCache, ConcurrentEnginesShareOneCache)
{
    // Two engine runs race on one process-lifetime cache: compilation
    // stays once-only per key across both, and each run's results are
    // bit-identical to a private-cache run.
    SimRequest request;
    request.accels = {"loas?pes=8", "loas?pes=16"};
    request.networks = {NetworkSpec{"layer", {tables::vgg16L8()}}};
    request.seed = 13;
    request.threads = 2;
    const SimReport reference = SimEngine().run(request);

    CompiledCache shared;
    request.compiled_cache = &shared;
    SimReport a, b;
    std::thread ta([&] { a = SimEngine().run(request); });
    std::thread tb([&] { b = SimEngine().run(request); });
    ta.join();
    tb.join();

    const CompiledCache::Stats stats = shared.stats();
    EXPECT_EQ(stats.misses, 1u); // one key, compiled exactly once
    EXPECT_EQ(stats.hits, 3u);   // the other three requests shared it
    EXPECT_EQ(stats.entries, 1u);
    // Each design's layer executed once across both runs; the other
    // run replayed its record.
    EXPECT_EQ(a.compile_cache.result_hits + b.compile_cache.result_hits,
              2u);
    EXPECT_EQ(stats.result_hits, 2u);
    for (const SimReport* report : {&a, &b})
        for (std::size_t i = 0; i < reference.runs.size(); ++i)
            EXPECT_EQ(json::toJson(report->runs[i].result),
                      json::toJson(reference.runs[i].result));
}

} // namespace
} // namespace loas
