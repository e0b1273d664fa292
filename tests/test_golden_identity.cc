/**
 * @file
 * Bit-identity guarantees of the allocation-free, word-parallel
 * simulation kernels:
 *
 *  1. Golden RunResults: every registered design on the seed
 *     single-layer networks must reproduce the exact cycle, traffic,
 *     cache and op counts captured before the kernel rewrite (PR 3
 *     code), field for field.
 *  2. Scratch reuse must be stateless: re-running execute() on a warm
 *     instance reproduces the cold run exactly.
 *  3. Result records persisted by an older execute model are never
 *     served: the table's digest is pinned next to the result version.
 *  4. Compiled artifacts: the serialized prepare() output of every
 *     (format family, ft variant) is pinned by digest, so a rewritten
 *     fiber compressor must reproduce the same bytes.
 *
 * Re-capturing the golden table (only when the *modeled hardware*
 * legitimately changes): the DISABLED_PrintGoldenTable test below
 * prints both tables in source form — paste its output over the
 * kGolden* arrays. One-liner:
 *
 *   ./build/test_golden_identity --gtest_also_run_disabled_tests \
 *       --gtest_filter='*PrintGoldenTable*'
 *
 * Bump rule: a re-captured table means execute() computes other
 * RunResults, so every result record on disk is stale. Bump
 * ArtifactStore::kResultVersion in the same change, then re-pin the
 * digest and the version in ResultVersionTracksGoldenTable (its
 * failure message prints the new digest). The old records are then
 * rejected and re-executed instead of served.
 *
 * Each row is, in order: total_cycles, compute_cycles, dram_cycles,
 * traffic.dramBytes(), traffic.sramBytes(), cache_hits,
 * cache_misses, ops.total() of
 * `registry.make(key)->runNetwork(generateNetwork(net, 101, ft), ...)`.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "api/registry.hh"
#include "workload/artifact_io.hh"
#include "workload/artifact_store.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

// ---------------------------------------------------------------------
// 1. Golden RunResults captured from the pre-rewrite simulators
//    (seed 101, the values every later change must keep reproducing).
// ---------------------------------------------------------------------

struct GoldenRun
{
    const char* key;
    std::uint64_t total_cycles, compute_cycles, dram_cycles;
    std::uint64_t dram_bytes, sram_bytes;
    std::uint64_t cache_hits, cache_misses, total_ops;
};

const GoldenRun kGoldenAlexnetL4[] = {
    {"gamma", 138135ull, 138135ull, 1525ull, 243968ull, 19010114ull,
     200113ull, 3259ull, 2055940ull},
    {"gospa", 220197ull, 217432ull, 3716ull, 594448ull, 2927816ull,
     635835ull, 2095ull, 1478768ull},
    {"loas", 49031ull, 48807ull, 1232ull, 197097ull, 7864368ull,
     260312ull, 2972ull, 3719868ull},
    {"loas-ft", 46068ull, 45881ull, 1179ull, 188501ull, 7823001ull,
     237770ull, 2858ull, 3100510ull},
    {"sparten", 316984ull, 316932ull, 1501ull, 240128ull, 28796816ull,
     497440ull, 3624ull, 3044868ull},
    {"stellar", 919536ull, 919536ull, 6272ull, 1003520ull, 18118656ull,
     0ull, 0ull, 55214080ull},
    {"systolic", 3594528ull, 3594528ull, 6272ull, 1003520ull,
     71663616ull, 0ull, 0ull, 55214080ull},
};

const GoldenRun kGoldenVgg16L8[] = {
    {"gamma", 45461ull, 45461ull, 1286ull, 205671ull, 4796221ull,
     15311ull, 2284ull, 734354ull},
    {"gospa", 31608ull, 30317ull, 1849ull, 295695ull, 1828600ull,
     310590ull, 3030ull, 625485ull},
    {"loas", 22408ull, 22393ull, 1249ull, 199715ull, 2720697ull,
     83824ull, 3064ull, 2079933ull},
    {"loas-ft", 17914ull, 17898ull, 1232ull, 196989ull, 2661075ull,
     69937ull, 3035ull, 1230960ull},
    {"sparten", 120593ull, 120567ull, 1310ull, 209600ull, 9624229ull,
     164536ull, 3211ull, 1197714ull},
    {"stellar", 215488ull, 215488ull, 7514ull, 1202176ull, 3994848ull,
     0ull, 0ull, 9041408ull},
    {"systolic", 1253952ull, 1253952ull, 7514ull, 1202176ull,
     24772608ull, 0ull, 0ull, 9041408ull},
};

void
expectGolden(const NetworkSpec& net, const GoldenRun* golden,
             std::size_t count)
{
    const auto& registry = AcceleratorRegistry::instance();
    // The golden table must cover every registered design: a new
    // backend needs a captured row before it ships.
    EXPECT_EQ(registry.keys().size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        const GoldenRun& want = golden[i];
        SCOPED_TRACE(net.name + " / " + want.key);
        const bool ft = registry.entry(want.key).ft_workload;
        const auto layers = generateNetwork(net, 101, ft);
        const RunResult r =
            registry.make(want.key)->runNetwork(layers, net.name);
        EXPECT_EQ(r.total_cycles, want.total_cycles);
        EXPECT_EQ(r.compute_cycles, want.compute_cycles);
        EXPECT_EQ(r.dram_cycles, want.dram_cycles);
        EXPECT_EQ(r.traffic.dramBytes(), want.dram_bytes);
        EXPECT_EQ(r.traffic.sramBytes(), want.sram_bytes);
        EXPECT_EQ(r.cache_hits, want.cache_hits);
        EXPECT_EQ(r.cache_misses, want.cache_misses);
        EXPECT_EQ(r.ops.total(), want.total_ops);
    }
}

TEST(GoldenIdentity, AlexnetL4AllDesigns)
{
    expectGolden(NetworkSpec{"alexnet-l4", {tables::alexnetL4()}},
                 kGoldenAlexnetL4, std::size(kGoldenAlexnetL4));
}

TEST(GoldenIdentity, Vgg16L8AllDesigns)
{
    expectGolden(NetworkSpec{"vgg16-l8", {tables::vgg16L8()}},
                 kGoldenVgg16L8, std::size(kGoldenVgg16L8));
}

// Re-capture helper (see the file header): prints both golden tables
// in source form. Disabled so it never runs in CI; invoke it with
// --gtest_also_run_disabled_tests when the modeled hardware changes.
TEST(GoldenIdentity, DISABLED_PrintGoldenTable)
{
    const auto& registry = AcceleratorRegistry::instance();
    const NetworkSpec nets[] = {
        {"alexnet-l4", {tables::alexnetL4()}},
        {"vgg16-l8", {tables::vgg16L8()}},
    };
    for (const auto& net : nets) {
        std::printf("// %s (seed 101)\n", net.name.c_str());
        for (const auto& key : registry.keys()) {
            const bool ft = registry.entry(key).ft_workload;
            const auto layers = generateNetwork(net, 101, ft);
            const RunResult r =
                registry.make(key)->runNetwork(layers, net.name);
            std::printf("    {\"%s\", %lluull, %lluull, %lluull, "
                        "%lluull, %lluull, %lluull, %lluull, "
                        "%lluull},\n",
                        key.c_str(),
                        static_cast<unsigned long long>(r.total_cycles),
                        static_cast<unsigned long long>(
                            r.compute_cycles),
                        static_cast<unsigned long long>(r.dram_cycles),
                        static_cast<unsigned long long>(
                            r.traffic.dramBytes()),
                        static_cast<unsigned long long>(
                            r.traffic.sramBytes()),
                        static_cast<unsigned long long>(r.cache_hits),
                        static_cast<unsigned long long>(r.cache_misses),
                        static_cast<unsigned long long>(r.ops.total()));
        }
    }
}

// ---------------------------------------------------------------------
// 2. Warm-instance determinism: execute() scratch must carry no state
//    between layers.
// ---------------------------------------------------------------------

TEST(GoldenIdentity, WarmExecuteReproducesColdRun)
{
    const auto& registry = AcceleratorRegistry::instance();
    const NetworkSpec net{"alexnet-l4", {tables::alexnetL4()}};
    for (const auto& key : registry.keys()) {
        SCOPED_TRACE(key);
        const bool ft = registry.entry(key).ft_workload;
        const auto layers = generateNetwork(net, 101, ft);
        const auto instance = registry.make(key);
        const CompiledLayer compiled = instance->prepare(layers[0]);
        const RunResult cold = instance->execute(compiled);
        const RunResult warm = instance->execute(compiled);
        EXPECT_EQ(cold.total_cycles, warm.total_cycles);
        EXPECT_EQ(cold.compute_cycles, warm.compute_cycles);
        EXPECT_EQ(cold.dram_cycles, warm.dram_cycles);
        EXPECT_EQ(cold.traffic.dramBytes(), warm.traffic.dramBytes());
        EXPECT_EQ(cold.traffic.sramBytes(), warm.traffic.sramBytes());
        EXPECT_EQ(cold.cache_hits, warm.cache_hits);
        EXPECT_EQ(cold.cache_misses, warm.cache_misses);
        EXPECT_EQ(cold.ops.total(), warm.ops.total());
    }
}

// ---------------------------------------------------------------------
// 3. Stale-record guard: the golden table and the result version move
//    together.
// ---------------------------------------------------------------------

/** FNV-1a of both golden tables rendered in source order. */
std::uint64_t
goldenTableDigest()
{
    std::string text;
    const auto render = [&](const GoldenRun* rows, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            const GoldenRun& r = rows[i];
            text += r.key;
            for (const std::uint64_t v :
                 {r.total_cycles, r.compute_cycles, r.dram_cycles,
                  r.dram_bytes, r.sram_bytes, r.cache_hits,
                  r.cache_misses, r.total_ops})
                text += ' ' + std::to_string(v);
            text += '\n';
        }
    };
    render(kGoldenAlexnetL4, std::size(kGoldenAlexnetL4));
    render(kGoldenVgg16L8, std::size(kGoldenVgg16L8));
    return artio::fnv1a(text.data(), text.size());
}

TEST(GoldenIdentity, ResultVersionTracksGoldenTable)
{
    // Taken at result version 1. See the bump rule in the file header.
    constexpr std::uint32_t kPinnedResultVersion = 1;
    constexpr std::uint64_t kPinnedDigest = 0x0e90c9aa4abb4b0full;
    EXPECT_EQ(goldenTableDigest(), kPinnedDigest)
        << "the golden table changed: bump ArtifactStore::kResultVersion "
           "and re-pin this digest (0x"
        << std::hex << goldenTableDigest() << ") with the new version";
    EXPECT_EQ(ArtifactStore::kResultVersion, kPinnedResultVersion)
        << "re-pin the golden digest together with the result version";
}

// ---------------------------------------------------------------------
// 4. Compiled artifacts: prepare() must keep producing the same bytes,
//    however its fiber compressors are written.
// ---------------------------------------------------------------------

/** FNV-1a over serializeCompiledLayer of every layer `key` prepares
 *  on `net` (seed 101), in layer order. */
std::uint64_t
artifactDigest(const std::string& key, const NetworkSpec& net,
               std::size_t batch)
{
    const auto& registry = AcceleratorRegistry::instance();
    const auto instance = registry.make(key);
    std::uint64_t hash = artio::fnv1a(nullptr, 0);
    for (const LayerData& layer :
         generateNetwork(net, 101, registry.entry(key).ft_workload,
                         batch)) {
        artio::Writer out;
        EXPECT_TRUE(
            artio::serializeCompiledLayer(instance->prepare(layer), out));
        const std::string bytes = out.take();
        hash = artio::fnv1a(bytes.data(), bytes.size(), hash);
    }
    return hash;
}

TEST(GoldenIdentity, CompiledArtifactsPinned)
{
    // One design per (format family, ft variant) the registry reaches;
    // every other design executes one of these artifacts.
    struct Case
    {
        const char* key;
        NetworkSpec net;
        std::size_t batch;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"gamma", tables::alexnet(), 1, 0x56c818ce7e2a118aull},
        {"gamma", tables::alexnet(), 2, 0xac47ba5189aa6a8bull},
        {"gamma", tables::resnet19(), 1, 0x0a97364a8762bdcfull},
        {"gospa", tables::alexnet(), 1, 0x46b2eefb80db923dull},
        {"gospa", tables::alexnet(), 2, 0xb4db278ddc359191ull},
        {"gospa", tables::resnet19(), 1, 0x9cb563c790f3e654ull},
        {"loas", tables::alexnet(), 1, 0xd6e7551bf6ec35bdull},
        {"loas", tables::alexnet(), 2, 0x550f03d1b1b8638cull},
        {"loas", tables::resnet19(), 1, 0x3d4c9e1cf22193e9ull},
        {"loas-ft", tables::alexnet(), 1, 0x8c5a2ca66787d697ull},
        {"loas-ft", tables::alexnet(), 2, 0xee8337533a915d48ull},
        {"loas-ft", tables::resnet19(), 1, 0x80971810427f3077ull},
        {"sparten", tables::alexnet(), 1, 0xa7663b8400f5bc92ull},
        {"sparten", tables::alexnet(), 2, 0x6a5aea4a29d9c9ddull},
        {"sparten", tables::resnet19(), 1, 0x69c43495df367cdaull},
        {"systolic", tables::alexnet(), 1, 0x8256aa940b8c6bceull},
        {"systolic", tables::alexnet(), 2, 0x4b77fba526015723ull},
        {"systolic", tables::resnet19(), 1, 0x3f64357429d88ca8ull},
    };
    const auto& registry = AcceleratorRegistry::instance();
    std::set<std::string> pinned, reached;
    for (const Case& c : cases)
        pinned.insert(registry.make(c.key)->formatFamily() +
                      (registry.entry(c.key).ft_workload ? "#ft" : ""));
    for (const auto& key : registry.keys())
        reached.insert(registry.make(key)->formatFamily() +
                       (registry.entry(key).ft_workload ? "#ft" : ""));
    EXPECT_EQ(pinned, reached);
    for (const Case& c : cases) {
        const std::uint64_t got = artifactDigest(c.key, c.net, c.batch);
        EXPECT_EQ(got, c.digest)
            << c.key << " " << c.net.name << " batch=" << c.batch
            << ": 0x" << std::hex << got;
    }
}

} // namespace
} // namespace loas
