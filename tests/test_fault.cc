/**
 * @file
 * Tests for the deterministic fault-injection registry (spec parsing,
 * seeded verdict determinism, env configuration, counters) and for
 * the disk circuit breaker it exercises: trip into memory-only mode
 * after consecutive disk I/O failures, timed half-open probe, full
 * recovery, and the rule that *data* rejections never feed the
 * breaker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hh"
#include "common/fault.hh"
#include "workload/artifact_store.hh"
#include "workload/compiled_cache.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

namespace fs = std::filesystem;

/** Every test leaves the process-global registry disarmed. */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard() { fault::reset(); }
};

std::string
tempDir(const std::string& name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("loas-fault-" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** A tiny real layer the artifact store can serialize. */
LayerData
tinyLayer(std::uint64_t seed)
{
    LayerSpec spec = tables::alexnetL4();
    spec.name = "fault-tiny";
    spec.m = 8;
    spec.n = 8;
    spec.k = 64;
    return generateLayer(spec, seed);
}

/** Compiles the tiny layer in the "loas" family. */
CompiledLayer
compileTiny(std::uint64_t seed)
{
    return AcceleratorRegistry::instance().make("loas")->prepare(
        tinyLayer(seed));
}

TEST(FaultSpec, ParsesSitesRatesAndSeed)
{
    FaultGuard guard;
    EXPECT_FALSE(fault::enabled());
    fault::configure("disk.write=0.5,engine.execute=1@seed=7");
    EXPECT_TRUE(fault::enabled());
    EXPECT_TRUE(fault::shouldFail(fault::Site::EngineExecute));
    EXPECT_EQ(fault::injectedCount(fault::Site::EngineExecute), 1u);
    // Unnamed sites stay at rate 0.
    EXPECT_FALSE(fault::shouldFail(fault::Site::SocketRead));
    EXPECT_EQ(fault::injectedCount(fault::Site::SocketRead), 0u);
}

TEST(FaultSpec, EmptySpecResetsAndZeroRateStillArms)
{
    FaultGuard guard;
    // A zero-rate spec arms the registry but never injects.
    fault::configure("disk.write=0@seed=1");
    EXPECT_TRUE(fault::enabled());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(fault::shouldFail(fault::Site::DiskWrite));
    EXPECT_EQ(fault::injectedTotal(), 0u);
    fault::configure("");
    EXPECT_FALSE(fault::enabled());
}

TEST(FaultSpec, MalformedSpecsThrow)
{
    FaultGuard guard;
    EXPECT_THROW(fault::configure("disk.wrong=0.5"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("disk.write"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("disk.write=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("disk.write=-0.1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("disk.write=0.5@seed=x"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("@seed=5"), std::invalid_argument);
    // A throwing configure leaves the registry disarmed.
    EXPECT_FALSE(fault::enabled());
}

TEST(FaultSpec, VerdictSequenceIsAPureFunctionOfTheSeed)
{
    FaultGuard guard;
    const auto sample = [](const std::string& spec) {
        fault::configure(spec);
        std::vector<bool> verdicts;
        for (int i = 0; i < 200; ++i)
            verdicts.push_back(
                fault::shouldFail(fault::Site::DiskWrite));
        return verdicts;
    };
    const std::vector<bool> a = sample("disk.write=0.3@seed=42");
    const std::vector<bool> b = sample("disk.write=0.3@seed=42");
    const std::vector<bool> c = sample("disk.write=0.3@seed=43");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // The rate is honored statistically: ~60 of 200 at 0.3.
    const std::size_t hits =
        static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
    EXPECT_GT(hits, 30u);
    EXPECT_LT(hits, 90u);
}

TEST(FaultSpec, MaybeThrowNamesTheSite)
{
    FaultGuard guard;
    fault::configure("engine.execute=1");
    try {
        fault::maybeThrow(fault::Site::EngineExecute);
        FAIL() << "expected an injected fault";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "injected fault at engine.execute");
    }
    fault::reset();
    fault::maybeThrow(fault::Site::EngineExecute); // disarmed: no-op
}

TEST(FaultSpec, ConfiguresFromEnvironment)
{
    FaultGuard guard;
    ASSERT_EQ(::unsetenv("LOAS_FAULT_SPEC"), 0);
    EXPECT_FALSE(fault::configureFromEnv());
    EXPECT_FALSE(fault::enabled());

    ASSERT_EQ(::setenv("LOAS_FAULT_SPEC", "socket.read=1", 1), 0);
    EXPECT_TRUE(fault::configureFromEnv());
    EXPECT_TRUE(fault::shouldFail(fault::Site::SocketRead));
    ASSERT_EQ(::unsetenv("LOAS_FAULT_SPEC"), 0);
}

TEST(DiskBreaker, ConsecutiveWriteFailuresTripIntoMemoryOnlyMode)
{
    FaultGuard guard;
    const std::string dir = tempDir("trip");
    CompiledCache cache;
    cache.setDiskBreaker(3, 1e6); // effectively no half-open retry
    cache.setDiskDir(dir);

    fault::configure("disk.write=1");
    for (int i = 0; i < 3; ++i)
        cache.getOrCompile("trip-key-" + std::to_string(i),
                           [] { return compileTiny(11); });
    CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.disk_trips, 1u);
    EXPECT_EQ(stats.disk_degraded, 1u);
    EXPECT_EQ(stats.disk_writes, 0u);
    EXPECT_EQ(ArtifactStore(dir).stats().files, 0u);

    // Open breaker: the next compile never touches the disk site, so
    // its injection counter stands still while the cache still serves.
    const std::uint64_t injected_before =
        fault::injectedCount(fault::Site::DiskWrite);
    const auto layer = cache.getOrCompile(
        "trip-key-3", [] { return compileTiny(11); });
    ASSERT_NE(layer, nullptr);
    EXPECT_EQ(fault::injectedCount(fault::Site::DiskWrite),
              injected_before);
    EXPECT_EQ(cache.stats().disk_trips, 1u); // no double count
}

TEST(DiskBreaker, HalfOpenProbeRecoversOrReArmsTheCooldown)
{
    FaultGuard guard;
    const std::string dir = tempDir("halfopen");
    CompiledCache cache;
    cache.setDiskBreaker(2, 40.0);
    cache.setDiskDir(dir);

    fault::configure("disk.write=1");
    for (int i = 0; i < 2; ++i)
        cache.getOrCompile("ho-key-" + std::to_string(i),
                           [] { return compileTiny(13); });
    ASSERT_EQ(cache.stats().disk_degraded, 1u);

    // Probe while the fault persists: still degraded, no second trip.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cache.getOrCompile("ho-key-2", [] { return compileTiny(13); });
    EXPECT_EQ(cache.stats().disk_degraded, 1u);
    EXPECT_EQ(cache.stats().disk_trips, 1u);

    // Disk heals; the next probe after the cooldown closes the
    // breaker and the store starts persisting again.
    fault::reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cache.getOrCompile("ho-key-3", [] { return compileTiny(13); });
    const CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.disk_degraded, 0u);
    EXPECT_EQ(stats.disk_writes, 1u);
    EXPECT_EQ(ArtifactStore(dir).stats().files, 1u);
}

TEST(DiskBreaker, DataRejectionsRecompileWithoutFeedingTheBreaker)
{
    FaultGuard guard;
    const std::string dir = tempDir("reject");
    CompiledCache cache;
    cache.setDiskBreaker(1, 1e6); // hair trigger: one I/O failure
    cache.setDiskDir(dir);

    const std::string key = "reject-key";
    cache.getOrCompile(key, [] { return compileTiny(17); });
    ASSERT_EQ(cache.stats().disk_writes, 1u);

    // Corrupt the stored payload, then force a reload: the rejection
    // must recompile-and-overwrite, not trip a breaker armed to trip
    // on a single I/O failure.
    const std::string path = ArtifactStore(dir).path(key);
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        ASSERT_TRUE(file.is_open());
        file.seekg(-1, std::ios::end);
        const int last = file.get();
        file.seekp(-1, std::ios::end);
        file.put(static_cast<char>(last ^ 1));
    }
    cache.clear(); // drop the memory level, keep the disk level
    cache.getOrCompile(key, [] { return compileTiny(17); });
    const CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.disk_rejects, 1u);
    EXPECT_EQ(stats.disk_trips, 0u);
    EXPECT_EQ(stats.disk_degraded, 0u);
    EXPECT_EQ(stats.disk_writes, 1u); // the overwrite, post-clear

    // An injected *read* I/O error, by contrast, counts: one is
    // enough at threshold 1 (the write fault keeps the recompile's
    // store from immediately closing the breaker again).
    cache.clear();
    fault::configure("disk.read=1,disk.write=1");
    cache.getOrCompile(key, [] { return compileTiny(17); });
    EXPECT_EQ(cache.stats().disk_trips, 1u);
    EXPECT_EQ(cache.stats().disk_degraded, 1u);
}

TEST(DiskBreaker, InsertFaultServesTheArtifactWithoutRetainingIt)
{
    FaultGuard guard;
    fault::configure("cache.insert=1");
    CompiledCache cache;
    int compiles = 0;
    const auto compile = [&] {
        ++compiles;
        return compileTiny(19);
    };
    const auto first = cache.getOrCompile("insert-key", compile);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.stats().entries, 0u); // not retained
    const auto second = cache.getOrCompile("insert-key", compile);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(compiles, 2); // recompiled, served, still not retained
    EXPECT_EQ(cache.stats().misses, 2u);
}

} // namespace
} // namespace loas
