/**
 * @file
 * Tests for the on-disk level: round-trip equality of every artifact
 * format family (including rank tables over k % 64 != 0 masks) and of
 * result records, header validation (magic / versions / checksum /
 * key / spec), corruption fallback for both file kinds, and
 * golden-identity of engine runs with the cache cold, warm in memory,
 * and warm on disk.
 *
 * A warm run reads a layer's result record before its artifact, so
 * the tests of artifact files remove the records (removeRecords())
 * before the run that must read the artifacts; each has a record twin
 * that damages the record instead.
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

/** Remove every result record under `dir`, so the next run reads
 *  (and executes) the artifacts. */
void
removeRecords(const std::string& dir)
{
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ArtifactStore::kRecordSuffix)
            fs::remove(entry.path());
}

/** The single file with `suffix` under `dir`. */
fs::path
onlyFile(const std::string& dir, const char* suffix)
{
    std::vector<fs::path> found;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == suffix)
            found.push_back(entry.path());
    EXPECT_EQ(found.size(), 1u) << suffix;
    return found.empty() ? fs::path() : found.front();
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

/** `design`'s batch-2 results on the odd layer, as executed. */
LayerResults
executedResults(const std::string& design, std::uint64_t seed)
{
    const auto& registry = AcceleratorRegistry::instance();
    const bool ft = registry.entry(parseAccelSpec(design).key).ft_workload;
    const LayerData layer = generateLayer(oddLayer(), seed, ft, 2);
    const auto instance = registry.make(design);
    const CompiledLayer compiled = instance->prepare(layer);
    LayerResults results;
    for (std::size_t b = 0; b < compiled.batch; ++b)
        results.push_back(instance->executeInput(compiled, b));
    return results;
}

TEST(ResultRecords, RoundTripEveryFieldOfEveryInput)
{
    const ArtifactStore store(tempCacheDir("records"));
    for (const std::string design :
         {"loas", "loas-ft", "sparten?fused=1", "gospa", "gamma",
          "systolic"}) {
        SCOPED_TRACE(design);
        const LayerResults results = executedResults(design, 89);
        ASSERT_EQ(results.size(), 2u);
        const std::string key = compiledLayerKey(
            "net", 0, false, "family-of-" + design, 4, 89, 2);
        ASSERT_TRUE(store.storeRecord(key, design, results));
        const ArtifactStore::LoadResult loaded =
            store.loadRecord(key, design);
        ASSERT_NE(loaded.results, nullptr);
        EXPECT_EQ(loaded.layer, nullptr);
        EXPECT_FALSE(loaded.rejected);
        ASSERT_EQ(loaded.results->size(), results.size());
        for (std::size_t b = 0; b < results.size(); ++b) {
            const RunResult& want = results[b];
            const RunResult& got = (*loaded.results)[b];
            // The JSON form covers every reported field; the rest are
            // checked directly.
            EXPECT_EQ(json::toJson(got), json::toJson(want));
            EXPECT_EQ(got.accel, want.accel);
            EXPECT_EQ(got.workload, want.workload);
            EXPECT_EQ(got.traffic.dram_read, want.traffic.dram_read);
            EXPECT_EQ(got.traffic.dram_write, want.traffic.dram_write);
            EXPECT_EQ(got.traffic.sram_read, want.traffic.sram_read);
            EXPECT_EQ(got.traffic.sram_write, want.traffic.sram_write);
            EXPECT_EQ(got.ops.total(), want.ops.total());
            EXPECT_EQ(got.static_scale, want.static_scale);
        }
    }
    EXPECT_EQ(store.stats().records, 6u);
    EXPECT_GT(store.stats().record_bytes, 0u);
    EXPECT_EQ(store.stats().files, 0u); // records are not artifacts
}

TEST(ResultRecords, HeaderLayoutIsTheDocumentedOne)
{
    // docs/FORMATS.md and the CI cache-persistence job rely on these
    // offsets: magic, then the format and result versions.
    const ArtifactStore store(tempCacheDir("record-header"));
    const std::string key = compiledLayerKey("net", 0, false, "loas", 4, 7);
    ASSERT_TRUE(store.storeRecord(key, "loas", executedResults("loas", 7)));
    std::ifstream file(store.recordPath(key, "loas"), std::ios::binary);
    char magic[8] = {};
    std::uint32_t versions[2] = {};
    file.read(magic, sizeof(magic));
    file.read(reinterpret_cast<char*>(versions), sizeof(versions));
    EXPECT_EQ(std::string(magic, sizeof(magic)),
              std::string("LOASRES\0", 8));
    EXPECT_EQ(versions[0], ArtifactStore::kFormatVersion);
    EXPECT_EQ(versions[1], ArtifactStore::kResultVersion);
    EXPECT_EQ(fs::path(store.recordPath(key, "loas")).extension(),
              ArtifactStore::kRecordSuffix);
}

TEST(ResultRecords, EveryAnomalyRejectsAsData)
{
    const ArtifactStore store(tempCacheDir("record-rejects"));
    const LayerResults results = executedResults("loas", 97);
    const std::string key =
        compiledLayerKey("net", 0, false, "loas", 4, 97);
    const std::string path = store.recordPath(key, "loas");
    // magic, format version, result version, checksum, payload size
    constexpr std::size_t kRecordHeader = 8 + 4 + 4 + 8 + 8;
    const auto expectDataRejection = [&](const char* what) {
        SCOPED_TRACE(what);
        const ArtifactStore::LoadResult loaded =
            store.loadRecord(key, "loas");
        EXPECT_EQ(loaded.results, nullptr);
        EXPECT_TRUE(loaded.rejected);
        EXPECT_FALSE(loaded.io_error);
        ASSERT_TRUE(store.storeRecord(key, "loas", results)); // restore
        EXPECT_NE(store.loadRecord(key, "loas").results, nullptr);
    };
    ASSERT_TRUE(store.storeRecord(key, "loas", results));

    // A never-written spec is a plain miss, not a rejection.
    const ArtifactStore::LoadResult missing =
        store.loadRecord(key, "loas?pes=16");
    EXPECT_EQ(missing.results, nullptr);
    EXPECT_FALSE(missing.rejected);

    const auto stamp = [&](std::size_t offset, std::uint32_t value) {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        file.seekp(static_cast<std::streamoff>(offset));
        file.write(reinterpret_cast<const char*>(&value), sizeof(value));
    };
    stamp(8, ArtifactStore::kFormatVersion - 1);
    expectDataRejection("stale format version");
    stamp(12, ArtifactStore::kResultVersion + 1);
    expectDataRejection("other result version");
    flipBit(path, kRecordHeader + (fs::file_size(path) - kRecordHeader) / 2,
            3);
    expectDataRejection("flipped payload bit");
    fs::resize_file(path, fs::file_size(path) - 5);
    expectDataRejection("truncated");
    fs::resize_file(path, 10);
    expectDataRejection("shorter than the header");

    // A file stored for another (key, spec) but found under this
    // name — a filename-hash collision — is rejected, never served.
    const std::string other =
        compiledLayerKey("net", 1, false, "loas", 4, 97);
    ASSERT_TRUE(store.storeRecord(other, "loas", results));
    fs::copy_file(store.recordPath(other, "loas"), path,
                  fs::copy_options::overwrite_existing);
    expectDataRejection("another key");
    ASSERT_TRUE(store.storeRecord(key, "loas?pes=16", results));
    fs::copy_file(store.recordPath(key, "loas?pes=16"), path,
                  fs::copy_options::overwrite_existing);
    expectDataRejection("another spec");

    // And an artifact file is never read as a record.
    const LayerData layer = generateLayer(oddLayer(), 97);
    ASSERT_TRUE(store.store(
        key, AcceleratorRegistry::instance().make("loas")->prepare(layer)));
    fs::copy_file(store.path(key), path,
                  fs::copy_options::overwrite_existing);
    expectDataRejection("an artifact");
}

/** Run `request` after `damage` breaks its one stored artifact: the
 *  file is rejected, recompiled and overwritten, and the next run
 *  loads it cleanly again. The records go first each time, or the
 *  runs would replay them without reading the artifact. */
void
expectRecompileAndOverwrite(const SimRequest& request,
                            const std::function<void(const fs::path&)>&
                                damage)
{
    const SimReport cold = SimEngine().run(request);
    ASSERT_EQ(cold.compile_cache.disk_writes, 1u);
    damage(onlyFile(request.cache_dir, ArtifactStore::kFileSuffix));

    removeRecords(request.cache_dir);
    const SimReport healed = SimEngine().run(request);
    EXPECT_EQ(healed.compile_cache.disk_rejects, 1u);
    EXPECT_EQ(healed.compile_cache.misses, 1u);
    EXPECT_EQ(healed.compile_cache.disk_writes, 1u);
    EXPECT_EQ(json::toJson(healed), json::toJson(cold));

    removeRecords(request.cache_dir);
    const SimReport warm = SimEngine().run(request);
    EXPECT_EQ(warm.compile_cache.disk_hits, 1u);
    EXPECT_EQ(warm.compile_cache.misses, 0u);
    EXPECT_EQ(warm.synth_layers, 0u);
}

/** Run `request` after `damage` breaks its one stored record: the
 *  record is rejected, re-executed from the stored artifact — no
 *  compile, no synthesis — and overwritten, and the next run replays
 *  it cleanly again. */
void
expectReexecuteAndOverwrite(const SimRequest& request,
                            const std::function<void(const fs::path&)>&
                                damage)
{
    const SimReport cold = SimEngine().run(request);
    ASSERT_EQ(cold.compile_cache.result_disk_writes, 1u);
    damage(onlyFile(request.cache_dir, ArtifactStore::kRecordSuffix));

    // A hair-trigger breaker: bad data must not count as an I/O error.
    CompiledCache cache;
    cache.setDiskBreaker(1, 1e6);
    cache.setDiskDir(request.cache_dir);
    SimRequest healing = request;
    healing.compiled_cache = &cache;
    const SimReport healed = SimEngine().run(healing);
    EXPECT_EQ(healed.compile_cache.disk_rejects, 1u);
    EXPECT_EQ(healed.compile_cache.result_disk_hits, 0u);
    EXPECT_EQ(healed.compile_cache.disk_hits, 1u);
    EXPECT_EQ(healed.compile_cache.misses, 0u);
    EXPECT_EQ(healed.synth_layers, 0u);
    EXPECT_EQ(healed.compile_cache.result_disk_writes, 1u);
    EXPECT_EQ(healed.compile_cache.disk_trips, 0u);
    EXPECT_EQ(json::toJson(healed), json::toJson(cold));

    const SimReport warm = SimEngine().run(request);
    EXPECT_EQ(warm.compile_cache.result_disk_hits, 1u);
    EXPECT_EQ(warm.compile_cache.disk_hits, 0u);
    EXPECT_EQ(warm.compile_cache.disk_rejects, 0u);
    EXPECT_EQ(json::toJson(warm), json::toJson(cold));
}

/** The one-layer sparten request the heal tests damage. */
SimRequest
healRequest(std::uint64_t seed, const std::string& name)
{
    SimRequest request;
    request.accels = {"sparten"};
    request.networks = {NetworkSpec{"layer", {oddLayer()}}};
    request.seed = seed;
    request.cache_dir = tempCacheDir(name);
    return request;
}

/** Overwrite the u32 at `offset` of the file at `path`. */
void
stampU32(const fs::path& path, std::size_t offset, std::uint32_t value)
{
    std::fstream stream(path,
                        std::ios::in | std::ios::out | std::ios::binary);
    stream.seekp(static_cast<std::streamoff>(offset));
    stream.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

const auto kTruncate = [](const fs::path& file) {
    fs::resize_file(file, fs::file_size(file) - 3);
};

TEST(DiskCache, TruncatedFileIsRecompiledAndOverwritten)
{
    expectRecompileAndOverwrite(healRequest(67, "truncate-heal"),
                                kTruncate);
}

TEST(DiskCache, TruncatedRecordIsReexecutedAndOverwritten)
{
    expectReexecuteAndOverwrite(healRequest(67, "truncate-record"),
                                kTruncate);
}

TEST(DiskCache, VersionFourFileIsRecompiledAndOverwritten)
{
    expectRecompileAndOverwrite(
        healRequest(71, "v4-heal"),
        [](const fs::path& file) { stampU32(file, 8, 4); });
}

TEST(DiskCache, StaleRecordVersionsAreReexecutedAndOverwritten)
{
    // A record stamped by an older artifact format, or by an older
    // execute model (result version), is stale data: rejected and
    // rewritten, never served.
    expectReexecuteAndOverwrite(
        healRequest(71, "v4-record"),
        [](const fs::path& file) { stampU32(file, 8, 4); });
    expectReexecuteAndOverwrite(
        healRequest(71, "stale-result-record"),
        [](const fs::path& file) {
            stampU32(file, 12, ArtifactStore::kResultVersion - 1);
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

    EXPECT_EQ(cold_disk.compile_cache.result_disk_writes,
              cold_disk.cells.size()); // one layer per cell

    // Warm records: a fresh private cache (a "new process") replays
    // every cell's layer from its disk record — no artifact loaded,
    // nothing compiled or executed.
    const SweepReport warm_records = SweepEngine().run(request);
    EXPECT_EQ(toCsv(cold), toCsv(warm_records));
    EXPECT_EQ(json::toJson(cold), json::toJson(warm_records));
    EXPECT_EQ(warm_records.compile_cache.result_disk_hits,
              cold_disk.compile_cache.result_disk_writes);
    EXPECT_EQ(warm_records.compile_cache.disk_hits, 0u);
    EXPECT_EQ(warm_records.compile_cache.misses, 0u);
    EXPECT_EQ(warm_records.compile_cache.hits, 0u);
    EXPECT_EQ(warm_records.compile_cache.disk_rejects, 0u);

    // Warm-disk: without the records, a fresh private cache loads
    // every artifact from disk and compiles nothing.
    removeRecords(dir);
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

    // Corrupt the single stored artifact (bit-flip, never a no-op),
    // and drop the record that would spare the run from reading it.
    {
        std::fstream file(onlyFile(dir, ArtifactStore::kFileSuffix),
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekg(64);
        const char flipped = static_cast<char>(file.get() ^ 0xff);
        file.seekp(64);
        file.put(flipped);
    }
    removeRecords(dir);

    const SimReport warm = SimEngine().run(request);
    EXPECT_EQ(warm.compile_cache.disk_hits, 0u);
    EXPECT_EQ(warm.compile_cache.disk_rejects, 1u);
    EXPECT_EQ(warm.compile_cache.misses, 1u);
    // The rejected file was overwritten with a good copy...
    EXPECT_EQ(warm.compile_cache.disk_writes, 1u);
    EXPECT_EQ(json::toJson(cold.runs[0].result),
              json::toJson(warm.runs[0].result));

    // ...so a third run is a clean disk hit again.
    removeRecords(dir);
    const SimReport healed = SimEngine().run(request);
    EXPECT_EQ(healed.compile_cache.disk_hits, 1u);
    EXPECT_EQ(healed.compile_cache.misses, 0u);
}

TEST(DiskCache, CorruptedRecordFallsBackToReexecute)
{
    SimRequest request = healRequest(41, "record-fallback");
    request.accels = {"loas"};
    expectReexecuteAndOverwrite(request, [](const fs::path& file) {
        flipBit(file.string(), fs::file_size(file) / 2, 0);
    });
}

TEST(DiskCache, BatchedWarmDiskRunReplaysEveryInput)
{
    SimRequest request;
    request.accels = {"loas", "sparten", "gamma"};
    request.networks = {NetworkSpec{"layers", {oddLayer(), oddLayer()}}};
    request.seed = 79;
    request.batch = 3;
    request.threads = 2;
    const SimReport cold = SimEngine().run(request);
    ASSERT_EQ(cold.runs[0].per_input.size(), 3u);

    request.cache_dir = tempCacheDir("batch-records");
    const SimReport cold_disk = SimEngine().run(request);
    EXPECT_EQ(cold_disk.compile_cache.result_disk_writes, 6u);
    EXPECT_EQ(json::toJson(cold_disk), json::toJson(cold));

    const SimReport warm = SimEngine().run(request);
    EXPECT_EQ(warm.compile_cache.result_disk_hits, 6u);
    EXPECT_EQ(warm.compile_cache.disk_hits, 0u);
    EXPECT_EQ(warm.compile_cache.misses, 0u);
    EXPECT_EQ(warm.synth_layers, 0u);
    EXPECT_EQ(json::toJson(warm), json::toJson(cold));
    ASSERT_EQ(warm.runs.size(), cold.runs.size());
    for (std::size_t i = 0; i < cold.runs.size(); ++i) {
        SCOPED_TRACE(cold.runs[i].accel_spec);
        ASSERT_EQ(warm.runs[i].per_input.size(), 3u);
        for (std::size_t b = 0; b < 3; ++b)
            EXPECT_EQ(json::toJson(warm.runs[i].per_input[b]),
                      json::toJson(cold.runs[i].per_input[b]));
    }
}

TEST(DiskCache, ClearedDirectoryReExecutesEverything)
{
    SimRequest request;
    request.accels = {"loas", "gospa"};
    request.networks = {NetworkSpec{"layers", {oddLayer(), oddLayer()}}};
    request.seed = 83;
    request.cache_dir = tempCacheDir("clear-records");
    const SimReport cold = SimEngine().run(request);
    EXPECT_EQ(cold.compile_cache.result_disk_writes, 4u);

    // What `loas_cli cache clear` does: every artifact and record goes,
    // so nothing old can be served afterwards.
    const ArtifactStore store(request.cache_dir);
    EXPECT_EQ(store.stats().files, 4u);
    EXPECT_EQ(store.stats().records, 4u);
    EXPECT_EQ(store.clear(), 8u);
    EXPECT_EQ(store.stats().records, 0u);

    const SimReport after = SimEngine().run(request);
    EXPECT_EQ(after.compile_cache.result_disk_hits, 0u);
    EXPECT_EQ(after.compile_cache.result_hits, 0u);
    EXPECT_EQ(after.compile_cache.disk_hits, 0u);
    EXPECT_EQ(after.compile_cache.misses, 4u);
    EXPECT_EQ(after.compile_cache.result_disk_writes, 4u);
    EXPECT_EQ(after.synth_layers, 2u);
    EXPECT_GT(after.sim_ms, 0.0); // every layer executed again
    EXPECT_EQ(json::toJson(after), json::toJson(cold));
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
    // closes it again, and the report is unchanged. Without its record
    // the run must read the artifact.
    removeRecords(request.cache_dir);
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

TEST(FaultedStore, InjectedRecordReadFailureFeedsTheBreaker)
{
    FaultGuard guard;
    SimRequest request = healRequest(73, "record-read-breaker");
    request.threads = 1;
    const SimReport cold = SimEngine().run(request);
    ASSERT_EQ(cold.compile_cache.result_disk_writes, 1u);

    // A design sharing the artifact makes it resident, so the one
    // disk read left for the `sparten` run is its record's.
    CompiledCache cache;
    cache.setDiskBreaker(1, 1e6);
    cache.setDiskDir(request.cache_dir);
    SimRequest fused = request;
    fused.accels = {"sparten?fused=1"};
    fused.compiled_cache = &cache;
    ASSERT_EQ(SimEngine().run(fused).compile_cache.disk_hits, 1u);

    request.compiled_cache = &cache;
    fault::configure("disk.read=1");
    const SimReport faulted = SimEngine().run(request);
    EXPECT_EQ(fault::injectedCount(fault::Site::DiskRead), 1u);
    EXPECT_EQ(faulted.compile_cache.disk_trips, 1u);
    EXPECT_EQ(faulted.compile_cache.disk_rejects, 0u); // I/O, not data
    EXPECT_EQ(faulted.compile_cache.result_disk_hits, 0u);
    EXPECT_EQ(faulted.compile_cache.hits, 1u);
    EXPECT_EQ(faulted.compile_cache.misses, 0u);
    // The re-execute's record store closes the breaker again.
    EXPECT_EQ(faulted.compile_cache.result_disk_writes, 1u);
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
    const CompiledLayer compiled = compiler->prepare(layer);
    const LayerResults results = {compiler->execute(compiled)};
    const auto store_both = [&] {
        ASSERT_TRUE(store.store(key, compiled));
        ASSERT_TRUE(store.storeRecord(key, "loas", results));
    };
    store_both();

    // Fabricate the orphans a writer killed between open and rename
    // would leave behind, of artifacts and of records.
    const auto orphan = [&](const std::string& name, const char* suffix) {
        const fs::path path =
            fs::path(dir) / (name + suffix + ".tmp.1.2");
        std::ofstream(path) << "torn";
        return path;
    };
    orphan("dead-writer-a", ArtifactStore::kFileSuffix);
    orphan("dead-writer-b", ArtifactStore::kFileSuffix);
    orphan("dead-recorder-a", ArtifactStore::kRecordSuffix);

    ArtifactStore::DiskStats stats = store.stats();
    EXPECT_EQ(stats.files, 1u); // temps never count as artifacts...
    EXPECT_EQ(stats.records, 1u); // ...nor as records
    EXPECT_GT(stats.record_bytes, 0u);
    EXPECT_EQ(stats.tmp_files, 3u);

    // Young temps survive an age-bounded sweep (a live writer's temp
    // must never be reaped), age 0 sweeps them all.
    EXPECT_EQ(store.sweepStaleTemps(3600.0), 0u);
    EXPECT_EQ(store.stats().tmp_files, 3u);
    EXPECT_EQ(store.sweepStaleTemps(0.0), 3u);
    EXPECT_EQ(store.stats().tmp_files, 0u);
    EXPECT_EQ(store.stats().files, 1u);
    EXPECT_EQ(store.stats().records, 1u);

    // clear() removes temps regardless of age, artifacts and records
    // included.
    orphan("dead-writer-c", ArtifactStore::kFileSuffix);
    orphan("dead-recorder-b", ArtifactStore::kRecordSuffix);
    EXPECT_EQ(store.clear(), 4u); // 1 artifact + 1 record + 2 temps
    EXPECT_EQ(store.stats().files, 0u);
    EXPECT_EQ(store.stats().records, 0u);
    EXPECT_EQ(store.stats().tmp_files, 0u);

    // Attaching a cache to the directory sweeps stale temps of both
    // kinds and reports them in the cache's own counters; the files
    // they would have become stay.
    store_both();
    const fs::file_time_type old_stamp =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    fs::last_write_time(orphan("dead-writer-d", ArtifactStore::kFileSuffix),
                        old_stamp);
    fs::last_write_time(
        orphan("dead-recorder-c", ArtifactStore::kRecordSuffix), old_stamp);
    CompiledCache cache;
    cache.setDiskDir(dir);
    EXPECT_EQ(cache.stats().disk_tmp_swept, 2u);
    EXPECT_EQ(store.stats().tmp_files, 0u);
    EXPECT_EQ(store.stats().files, 1u);
    EXPECT_EQ(store.stats().records, 1u);
}

} // namespace
} // namespace loas
