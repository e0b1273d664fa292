/**
 * @file
 * Tests for the on-disk compiled-artifact level: round-trip equality of
 * every format family (including rank tables over k % 64 != 0 masks),
 * header validation (magic / version / checksum / key), corruption
 * fallback, and golden-identity of engine runs with the cache cold,
 * warm in memory, and warm on disk.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "api/json.hh"
#include "api/registry.hh"
#include "api/sim_engine.hh"
#include "api/sweep.hh"
#include "common/fault.hh"
#include "api/sweep_io.hh"
#include "workload/artifact_io.hh"
#include "workload/artifact_store.hh"
#include "workload/compiled_cache.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

namespace fs = std::filesystem;

/** Fresh, empty cache directory unique to the calling test. */
std::string
tempCacheDir(const std::string& name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("loas-cache-" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/**
 * A small layer whose reduction dimension is deliberately not a
 * multiple of 64, so serialized bitmask tails and rank tables cover
 * the partial-word path.
 */
LayerSpec
oddLayer()
{
    LayerSpec spec = tables::alexnetL4();
    spec.name = "odd-layer";
    spec.m = 48;
    spec.n = 40;
    spec.k = 130; // k % 64 != 0
    return spec;
}

TEST(ArtifactStore, RoundTripsEveryFamilyBitIdentically)
{
    const std::string dir = tempCacheDir("roundtrip");
    const ArtifactStore store(dir);
    const auto& registry = AcceleratorRegistry::instance();

    // One design per format family; loas-ft exercises the ft-workload
    // variant of the loas family on its own key.
    const std::vector<std::string> designs = {
        "loas", "loas-ft", "sparten", "gospa", "gamma", "systolic"};
    for (const auto& design : designs) {
        SCOPED_TRACE(design);
        const bool ft = registry.entry(design).ft_workload;
        const LayerData layer = generateLayer(oddLayer(), 19, ft);
        const auto compiler = registry.make(design);
        const CompiledLayer compiled = compiler->prepare(layer);
        const std::string key = compiledLayerKey(
            "net", 0, ft, compiler->formatFamily(), layer.spec.t, 19);

        ASSERT_TRUE(store.store(key, compiled));
        const ArtifactStore::LoadResult loaded = store.load(key);
        EXPECT_FALSE(loaded.rejected);
        ASSERT_NE(loaded.layer, nullptr);

        EXPECT_EQ(loaded.layer->family, compiled.family);
        EXPECT_EQ(loaded.layer->spec.name, compiled.spec.name);
        EXPECT_EQ(loaded.layer->m, compiled.m);
        EXPECT_EQ(loaded.layer->k, compiled.k);
        EXPECT_EQ(loaded.layer->n, compiled.n);
        EXPECT_EQ(loaded.layer->timesteps, compiled.timesteps);
        EXPECT_EQ(loaded.layer->bytes, compiled.bytes);

        // The decisive check: the simulated datapath cannot tell the
        // reconstructed artifact from the freshly compiled one.
        const RunResult from_fresh =
            registry.make(design)->execute(compiled);
        const RunResult from_disk =
            registry.make(design)->execute(*loaded.layer);
        EXPECT_EQ(json::toJson(from_fresh), json::toJson(from_disk));
    }

    EXPECT_EQ(store.stats().files, designs.size());
    EXPECT_GT(store.stats().bytes, 0u);
    EXPECT_EQ(store.clear(), designs.size());
    EXPECT_EQ(store.stats().files, 0u);
}

TEST(ArtifactStore, FusedSpartenExecutesIdenticallyFromDisk)
{
    // The fused=0/1 design variants share one sparten-snn artifact, so
    // the v3 temporally-packed operands must survive the disk round
    // trip well enough that the fused datapath cannot tell either: the
    // same artifact must serve both variants byte-identically.
    const std::string dir = tempCacheDir("fused");
    const ArtifactStore store(dir);
    const auto& registry = AcceleratorRegistry::instance();
    const LayerData layer = generateLayer(oddLayer(), 43);
    const auto compiler = registry.make("sparten");
    const CompiledLayer compiled = compiler->prepare(layer);
    const std::string key = compiledLayerKey(
        "net", 0, false, compiler->formatFamily(), layer.spec.t, 43);
    ASSERT_TRUE(store.store(key, compiled));
    const ArtifactStore::LoadResult loaded = store.load(key);
    ASSERT_NE(loaded.layer, nullptr);

    for (const std::string spec :
         {"sparten?fused=1", "sparten?fused=1&collapse=0"}) {
        SCOPED_TRACE(spec);
        const RunResult from_fresh =
            registry.make(spec)->execute(compiled);
        const RunResult from_disk =
            registry.make(spec)->execute(*loaded.layer);
        EXPECT_EQ(json::toJson(from_fresh), json::toJson(from_disk));
    }
}

TEST(ArtifactStore, MissingFileIsAMissNotARejection)
{
    const ArtifactStore store(tempCacheDir("missing"));
    const ArtifactStore::LoadResult result = store.load("no-such-key");
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_FALSE(result.rejected);
}

TEST(ArtifactStore, ChecksumRejectsCorruptedFiles)
{
    const std::string dir = tempCacheDir("corrupt");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 23);
    const auto compiler = AcceleratorRegistry::instance().make("loas");
    const std::string key =
        compiledLayerKey("net", 0, false, "loas", layer.spec.t, 23);
    ASSERT_TRUE(store.store(key, compiler->prepare(layer)));

    // Flip one payload byte in place: the checksum must catch it.
    const std::string path = store.path(key);
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.good());
        file.seekg(100);
        const char flipped = static_cast<char>(file.get() ^ 0xff);
        file.seekp(100);
        file.put(flipped);
    }
    const ArtifactStore::LoadResult result = store.load(key);
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_TRUE(result.rejected);
}

TEST(ArtifactStore, FormatVersionMismatchRejects)
{
    const std::string dir = tempCacheDir("version");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 29);
    const auto compiler = AcceleratorRegistry::instance().make("gamma");
    const std::string key =
        compiledLayerKey("net", 0, false, "gamma", layer.spec.t, 29);
    ASSERT_TRUE(store.store(key, compiler->prepare(layer)));

    // Patch the version stamp (bytes 8..11, after the 8-byte magic).
    const std::string path = store.path(key);
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.good());
        file.seekp(8);
        const std::uint32_t bumped = ArtifactStore::kFormatVersion + 1;
        file.write(reinterpret_cast<const char*>(&bumped),
                   sizeof(bumped));
    }
    const ArtifactStore::LoadResult result = store.load(key);
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_TRUE(result.rejected);
}

TEST(ArtifactStore, TruncatedFileRejects)
{
    const std::string dir = tempCacheDir("truncate");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 31);
    const auto compiler = AcceleratorRegistry::instance().make("gospa");
    const std::string key =
        compiledLayerKey("net", 0, false, "gospa", layer.spec.t, 31);
    ASSERT_TRUE(store.store(key, compiler->prepare(layer)));

    const std::string path = store.path(key);
    fs::resize_file(path, fs::file_size(path) / 2);
    const ArtifactStore::LoadResult result = store.load(key);
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_TRUE(result.rejected);
}

/** Header bytes before the payload: magic, version, checksum, size. */
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

/** The stored payload size of the file at `path`. */
std::uint64_t
storedPayloadSize(const std::string& path)
{
    std::ifstream file(path, std::ios::binary);
    file.seekg(8 + 4 + 8);
    std::uint64_t size = 0;
    file.read(reinterpret_cast<char*>(&size), sizeof(size));
    return size;
}

/** Flip one bit of the byte at `offset` of the file at `path`. */
void
flipBit(const std::string& path, std::size_t offset, int bit)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(offset));
    const char flipped = static_cast<char>(file.get() ^ (1 << bit));
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(flipped);
}

TEST(ArtifactChecksum, EverySingleBitFlipChangesTheWordWiseHash)
{
    // 8 words plus a 5-byte tail: every bit of every word and of the
    // byte-wise tail is covered.
    std::string data(69, '\0');
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<char>(i * 37 + 11);
    const std::uint64_t clean =
        artio::fnv1aWords(data.data(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = data;
            flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
            EXPECT_NE(artio::fnv1aWords(flipped.data(), flipped.size()),
                      clean)
                << "byte " << i << " bit " << bit;
        }
}

TEST(ArtifactChecksum, RejectsOneFlippedBitAnywhereInThePayload)
{
    const std::string dir = tempCacheDir("bitflip");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 61);
    const auto compiler = AcceleratorRegistry::instance().make("sparten");
    const CompiledLayer compiled = compiler->prepare(layer);

    // Pad the key until the payload ends in a partial word, so the
    // byte-wise tail of the checksum is on the line too.
    std::string key;
    for (std::string pad;; pad += 'x') {
        key = compiledLayerKey("net" + pad, 0, false, "sparten-snn",
                               layer.spec.t, 61);
        ASSERT_TRUE(store.store(key, compiled));
        if (storedPayloadSize(store.path(key)) % 8 != 0)
            break;
        fs::remove(store.path(key));
    }
    const std::string path = store.path(key);
    const std::uint64_t payload = storedPayloadSize(path);
    ASSERT_EQ(fs::file_size(path), kHeaderBytes + payload);

    const std::size_t offsets[] = {
        kHeaderBytes,                             // first payload byte
        kHeaderBytes + payload / 2,               // mid-payload
        kHeaderBytes + payload - payload % 8,     // first tail byte
        kHeaderBytes + payload - 1};              // last tail byte
    for (const std::size_t offset : offsets) {
        for (const int bit : {0, 7}) {
            SCOPED_TRACE("offset " + std::to_string(offset) + " bit " +
                         std::to_string(bit));
            flipBit(path, offset, bit);
            const ArtifactStore::LoadResult corrupt = store.load(key);
            EXPECT_EQ(corrupt.layer, nullptr);
            EXPECT_TRUE(corrupt.rejected);
            EXPECT_FALSE(corrupt.io_error);
            flipBit(path, offset, bit); // restore
            EXPECT_NE(store.load(key).layer, nullptr);
        }
    }
}

TEST(ArtifactStore, UnreadableFileIsAnIoErrorRejection)
{
    // A directory where the file should be opens but cannot be read:
    // the sized read fails, which is an I/O error, not bad data.
    const ArtifactStore store(tempCacheDir("unreadable"));
    fs::create_directories(store.path("dir-key"));
    const ArtifactStore::LoadResult result = store.load("dir-key");
    EXPECT_EQ(result.layer, nullptr);
    EXPECT_TRUE(result.rejected);
    EXPECT_TRUE(result.io_error);
}

/** Run `request` after `damage` breaks its one stored artifact: the
 *  file is rejected, recompiled and overwritten, and the next run
 *  loads it cleanly again. */
void
expectRecompileAndOverwrite(const SimRequest& request,
                            const std::function<void(const fs::path&)>&
                                damage)
{
    const SimReport cold = SimEngine().run(request);
    ASSERT_EQ(cold.compile_cache.disk_writes, 1u);
    const fs::path file =
        fs::directory_iterator(request.cache_dir)->path();
    damage(file);

    const SimReport healed = SimEngine().run(request);
    EXPECT_EQ(healed.compile_cache.disk_rejects, 1u);
    EXPECT_EQ(healed.compile_cache.misses, 1u);
    EXPECT_EQ(healed.compile_cache.disk_writes, 1u);
    EXPECT_EQ(json::toJson(healed), json::toJson(cold));

    const SimReport warm = SimEngine().run(request);
    EXPECT_EQ(warm.compile_cache.disk_hits, 1u);
    EXPECT_EQ(warm.compile_cache.misses, 0u);
    EXPECT_EQ(warm.synth_layers, 0u);
}

TEST(DiskCache, TruncatedFileIsRecompiledAndOverwritten)
{
    SimRequest request;
    request.accels = {"sparten"};
    request.networks = {NetworkSpec{"layer", {oddLayer()}}};
    request.seed = 67;
    request.cache_dir = tempCacheDir("truncate-heal");
    expectRecompileAndOverwrite(request, [](const fs::path& file) {
        fs::resize_file(file, fs::file_size(file) - 3);
    });
}

TEST(DiskCache, VersionFourFileIsRecompiledAndOverwritten)
{
    SimRequest request;
    request.accels = {"sparten"};
    request.networks = {NetworkSpec{"layer", {oddLayer()}}};
    request.seed = 71;
    request.cache_dir = tempCacheDir("v4-heal");
    expectRecompileAndOverwrite(request, [](const fs::path& file) {
        std::fstream stream(file, std::ios::in | std::ios::out |
                                      std::ios::binary);
        const std::uint32_t v4 = 4;
        stream.seekp(8);
        stream.write(reinterpret_cast<const char*>(&v4), sizeof(v4));
    });
}

TEST(DiskCache, ColdWarmMemoryAndWarmDiskRunsAreByteIdentical)
{
    const std::string dir = tempCacheDir("golden");
    SweepRequest request;
    request.grids = {"loas?pes=8,16", "sparten"};
    request.networks = {"alexnet-l4"};
    request.seed = 37;
    request.threads = 2;

    // Cold: no cache directory, private in-memory cache only.
    const SweepReport cold = SweepEngine().run(request);

    // Cold-disk: same request, now writing through to disk.
    request.cache_dir = dir;
    const SweepReport cold_disk = SweepEngine().run(request);
    EXPECT_EQ(toCsv(cold), toCsv(cold_disk));
    EXPECT_EQ(json::toJson(cold), json::toJson(cold_disk));
    EXPECT_EQ(cold_disk.compile_cache.disk_hits, 0u);
    EXPECT_GT(cold_disk.compile_cache.disk_writes, 0u);

    // Warm-disk: a fresh private cache (a "new process") loads every
    // artifact from disk and compiles nothing.
    const SweepReport warm_disk = SweepEngine().run(request);
    EXPECT_EQ(toCsv(cold), toCsv(warm_disk));
    EXPECT_EQ(json::toJson(cold), json::toJson(warm_disk));
    EXPECT_EQ(warm_disk.compile_cache.misses, 0u);
    EXPECT_EQ(warm_disk.compile_cache.compile_ms, 0.0);
    EXPECT_EQ(warm_disk.compile_cache.disk_hits,
              cold_disk.compile_cache.disk_writes);

    // Warm-memory: a shared cache across two runs serves pure hits.
    CompiledCache shared;
    request.cache_dir.clear();
    request.compiled_cache = &shared;
    SweepEngine().run(request);
    const SweepReport warm_mem = SweepEngine().run(request);
    EXPECT_EQ(toCsv(cold), toCsv(warm_mem));
    EXPECT_EQ(warm_mem.compile_cache.misses, 0u);
    EXPECT_EQ(warm_mem.compile_cache.hits,
              cold.compile_cache.hits + cold.compile_cache.misses);
}

TEST(DiskCache, CorruptedEntryFallsBackToRecompile)
{
    const std::string dir = tempCacheDir("fallback");
    SimRequest request;
    request.accels = {"loas"};
    request.networks = {NetworkSpec{"layer", {oddLayer()}}};
    request.seed = 41;
    request.cache_dir = dir;

    const SimReport cold = SimEngine().run(request);
    EXPECT_EQ(cold.compile_cache.disk_writes, 1u);

    // Corrupt the single stored artifact (bit-flip, never a no-op).
    for (const auto& entry : fs::directory_iterator(dir)) {
        std::fstream file(entry.path(), std::ios::in | std::ios::out |
                                            std::ios::binary);
        file.seekg(64);
        const char flipped = static_cast<char>(file.get() ^ 0xff);
        file.seekp(64);
        file.put(flipped);
    }

    const SimReport warm = SimEngine().run(request);
    EXPECT_EQ(warm.compile_cache.disk_hits, 0u);
    EXPECT_EQ(warm.compile_cache.disk_rejects, 1u);
    EXPECT_EQ(warm.compile_cache.misses, 1u);
    // The rejected file was overwritten with a good copy...
    EXPECT_EQ(warm.compile_cache.disk_writes, 1u);
    EXPECT_EQ(json::toJson(cold.runs[0].result),
              json::toJson(warm.runs[0].result));

    // ...so a third run is a clean disk hit again.
    const SimReport healed = SimEngine().run(request);
    EXPECT_EQ(healed.compile_cache.disk_hits, 1u);
    EXPECT_EQ(healed.compile_cache.misses, 0u);
}

/** Tests below arm the process-global fault registry; disarm after. */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard() { fault::reset(); }
};

TEST(FaultedStore, InjectedFaultsDegradeCleanlyOnEveryFamily)
{
    FaultGuard guard;
    const std::string dir = tempCacheDir("faulted");
    const ArtifactStore store(dir);
    const auto& registry = AcceleratorRegistry::instance();

    const std::vector<std::string> designs = {
        "loas", "loas-ft", "sparten", "gospa", "gamma", "systolic"};
    for (const auto& design : designs) {
        SCOPED_TRACE(design);
        const bool ft = registry.entry(design).ft_workload;
        const LayerData layer = generateLayer(oddLayer(), 53, ft);
        const auto compiler = registry.make(design);
        const CompiledLayer compiled = compiler->prepare(layer);
        const std::string key = compiledLayerKey(
            "net", 0, ft, compiler->formatFamily(), layer.spec.t, 53);

        // A write fault fails the store without publishing anything —
        // no artifact, no leaked temp.
        fault::configure("disk.write=1");
        EXPECT_FALSE(store.store(key, compiled));
        EXPECT_EQ(store.load(key).layer, nullptr);
        EXPECT_EQ(store.stats().tmp_files, 0u);

        // A rename fault fails after the payload was written; the
        // temp must still be cleaned up.
        fault::configure("disk.rename=1");
        EXPECT_FALSE(store.store(key, compiled));
        EXPECT_EQ(store.stats().tmp_files, 0u);

        // Disarmed, the same store succeeds; a read fault then
        // rejects the valid file as an I/O error...
        fault::reset();
        ASSERT_TRUE(store.store(key, compiled));
        fault::configure("disk.read=1");
        const ArtifactStore::LoadResult faulted = store.load(key);
        EXPECT_EQ(faulted.layer, nullptr);
        EXPECT_TRUE(faulted.rejected);
        EXPECT_TRUE(faulted.io_error);

        // ...and once the fault clears, the artifact loads intact and
        // executes identically to the fresh compile.
        fault::reset();
        const ArtifactStore::LoadResult loaded = store.load(key);
        ASSERT_NE(loaded.layer, nullptr);
        EXPECT_FALSE(loaded.rejected);
        const RunResult from_fresh =
            registry.make(design)->execute(compiled);
        const RunResult from_disk =
            registry.make(design)->execute(*loaded.layer);
        EXPECT_EQ(json::toJson(from_fresh), json::toJson(from_disk));
    }
    EXPECT_EQ(store.stats().files, designs.size());
}

TEST(FaultedStore, InjectedReadFailureFeedsTheBreaker)
{
    FaultGuard guard;
    SimRequest request;
    request.accels = {"sparten"};
    request.networks = {NetworkSpec{"layer", {oddLayer()}}};
    request.seed = 73;
    request.threads = 1;
    request.cache_dir = tempCacheDir("read-breaker");
    const SimReport cold = SimEngine().run(request);
    ASSERT_EQ(cold.compile_cache.disk_writes, 1u);

    // The only disk failure is the injected read, so it alone trips a
    // threshold-1 breaker; the recompile's successful store then
    // closes it again, and the report is unchanged.
    CompiledCache cache;
    cache.setDiskBreaker(1, 1e6);
    cache.setDiskDir(request.cache_dir);
    request.compiled_cache = &cache;
    fault::configure("disk.read=1");
    const SimReport faulted = SimEngine().run(request);
    EXPECT_EQ(fault::injectedCount(fault::Site::DiskRead), 1u);
    EXPECT_EQ(faulted.compile_cache.disk_trips, 1u);
    EXPECT_EQ(faulted.compile_cache.disk_hits, 0u);
    EXPECT_EQ(faulted.compile_cache.misses, 1u);
    EXPECT_EQ(faulted.compile_cache.disk_writes, 1u);
    EXPECT_EQ(cache.stats().disk_degraded, 0u);
    EXPECT_EQ(json::toJson(faulted), json::toJson(cold));
}

TEST(StaleTemps, AreCountedSweptByAgeAndClearedUnconditionally)
{
    const std::string dir = tempCacheDir("tmps");
    const ArtifactStore store(dir);
    const LayerData layer = generateLayer(oddLayer(), 59);
    const auto compiler = AcceleratorRegistry::instance().make("loas");
    const std::string key =
        compiledLayerKey("net", 0, false, "loas", layer.spec.t, 59);
    ASSERT_TRUE(store.store(key, compiler->prepare(layer)));

    // Fabricate the orphans a writer killed between open and rename
    // would leave behind.
    const auto orphan = [&](const std::string& name) {
        std::ofstream(fs::path(dir) /
                      (name + ArtifactStore::kFileSuffix + ".tmp.1.2"))
            << "torn";
    };
    orphan("dead-writer-a");
    orphan("dead-writer-b");

    ArtifactStore::DiskStats stats = store.stats();
    EXPECT_EQ(stats.files, 1u); // temps never count as artifacts
    EXPECT_EQ(stats.tmp_files, 2u);

    // Young temps survive an age-bounded sweep (a live writer's temp
    // must never be reaped), age 0 sweeps them all.
    EXPECT_EQ(store.sweepStaleTemps(3600.0), 0u);
    EXPECT_EQ(store.stats().tmp_files, 2u);
    EXPECT_EQ(store.sweepStaleTemps(0.0), 2u);
    EXPECT_EQ(store.stats().tmp_files, 0u);

    // clear() removes temps regardless of age, artifacts included.
    orphan("dead-writer-c");
    EXPECT_EQ(store.clear(), 2u); // 1 artifact + 1 temp
    EXPECT_EQ(store.stats().files, 0u);
    EXPECT_EQ(store.stats().tmp_files, 0u);

    // Attaching a cache to the directory sweeps stale temps and
    // reports them in the cache's own counters.
    orphan("dead-writer-d");
    const fs::path orphan_path =
        fs::path(dir) / (std::string("dead-writer-d") +
                         ArtifactStore::kFileSuffix + ".tmp.1.2");
    const fs::file_time_type old_stamp =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    fs::last_write_time(orphan_path, old_stamp);
    CompiledCache cache;
    cache.setDiskDir(dir);
    EXPECT_EQ(cache.stats().disk_tmp_swept, 1u);
    EXPECT_EQ(store.stats().tmp_files, 0u);
}

} // namespace
} // namespace loas
