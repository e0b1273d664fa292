/** @file Tests for the set-associative LRU cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"

namespace loas {
namespace {

CacheConfig
smallCache()
{
    CacheConfig config;
    config.size_bytes = 1024; // 16 lines
    config.ways = 4;
    config.line_bytes = 64;
    return config;
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallCache());
    auto first = cache.accessLine(0, false, TensorCategory::Input);
    EXPECT_FALSE(first.hit);
    auto second = cache.accessLine(32, false, TensorCategory::Input);
    EXPECT_TRUE(second.hit); // same 64 B line
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 4 sets x 4 ways: addresses with the same set index collide.
    Cache cache(smallCache());
    const std::uint64_t stride = 4 * 64; // same set every time
    for (int i = 0; i < 4; ++i)
        cache.accessLine(i * stride, false, TensorCategory::Input);
    // Touch line 0 so line 1 becomes LRU.
    cache.accessLine(0, false, TensorCategory::Input);
    // A 5th line evicts line 1 (the LRU), not line 0.
    cache.accessLine(4 * stride, false, TensorCategory::Input);
    EXPECT_TRUE(cache.accessLine(0, false, TensorCategory::Input).hit);
    EXPECT_FALSE(
        cache.accessLine(1 * stride, false, TensorCategory::Input).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache cache(smallCache());
    const std::uint64_t stride = 4 * 64;
    cache.accessLine(0, true, TensorCategory::Psum); // dirty
    for (int i = 1; i <= 3; ++i)
        cache.accessLine(i * stride, false, TensorCategory::Input);
    const auto result =
        cache.accessLine(4 * stride, false, TensorCategory::Input);
    EXPECT_FALSE(result.hit);
    EXPECT_TRUE(result.writeback);
    EXPECT_EQ(result.writeback_cat, TensorCategory::Psum);
}

TEST(Cache, CleanEvictionNoWriteback)
{
    Cache cache(smallCache());
    const std::uint64_t stride = 4 * 64;
    for (int i = 0; i <= 4; ++i) {
        const auto result =
            cache.accessLine(i * stride, false, TensorCategory::Input);
        EXPECT_FALSE(result.writeback);
    }
}

TEST(Cache, FlushReturnsDirtyBytesByCategory)
{
    Cache cache(smallCache());
    cache.accessLine(0, true, TensorCategory::Psum);
    cache.accessLine(64, true, TensorCategory::Output);
    cache.accessLine(128, false, TensorCategory::Input);
    const auto dirty = cache.flush();
    EXPECT_EQ(dirty[static_cast<int>(TensorCategory::Psum)], 64u);
    EXPECT_EQ(dirty[static_cast<int>(TensorCategory::Output)], 64u);
    EXPECT_EQ(dirty[static_cast<int>(TensorCategory::Input)], 0u);
    // Everything invalid after the flush.
    EXPECT_FALSE(cache.accessLine(0, false, TensorCategory::Input).hit);
}

TEST(Cache, MissRate)
{
    Cache cache(smallCache());
    cache.accessLine(0, false, TensorCategory::Input);
    cache.accessLine(0, false, TensorCategory::Input);
    cache.accessLine(0, false, TensorCategory::Input);
    cache.accessLine(0, false, TensorCategory::Input);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.25);
}

TEST(Cache, Table3GeometryAccepted)
{
    CacheConfig config; // defaults: 256 KB, 16-way, 64 B lines
    Cache cache(config);
    EXPECT_EQ(cache.config().size_bytes, 256u * 1024);
    // 256 KB working set fits: second sweep all hits.
    for (std::uint64_t addr = 0; addr < 256 * 1024; addr += 64)
        cache.accessLine(addr, false, TensorCategory::Weight);
    const std::uint64_t misses_after_fill = cache.misses();
    for (std::uint64_t addr = 0; addr < 256 * 1024; addr += 64)
        cache.accessLine(addr, false, TensorCategory::Weight);
    EXPECT_EQ(cache.misses(), misses_after_fill);
}

TEST(CacheDeath, RejectsBadGeometry)
{
    CacheConfig config;
    config.line_bytes = 48; // not a power of two
    EXPECT_DEATH({ Cache cache(config); }, "power of two");
}

/**
 * The LRU cache by definition: set index by modulo, every way scanned
 * on every access, the victim an invalid way or else the least
 * recently used one.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t sets, std::uint32_t ways,
                   std::uint32_t line_bytes)
        : line_bytes_(line_bytes), sets_(sets, std::vector<Line>(ways))
    {
    }

    Cache::LineResult
    access(std::uint64_t addr, bool write, TensorCategory cat)
    {
        const std::uint64_t line_addr = addr / line_bytes_;
        std::vector<Line>& set = sets_[line_addr % sets_.size()];
        ++tick_;
        for (Line& line : set) {
            if (line.valid && line.tag == line_addr) {
                line.last_use = tick_;
                line.dirty = line.dirty || write;
                return {true, false, TensorCategory::Input};
            }
        }
        auto victim = std::find_if(set.begin(), set.end(),
                                   [](const Line& l) { return !l.valid; });
        if (victim == set.end())
            victim = std::min_element(
                set.begin(), set.end(), [](const Line& a, const Line& b) {
                    return a.last_use < b.last_use;
                });
        const Cache::LineResult result{
            false, victim->valid && victim->dirty,
            victim->valid && victim->dirty ? victim->cat
                                           : TensorCategory::Input};
        *victim = Line{line_addr, tick_, cat, true, write};
        return result;
    }

    std::array<std::uint64_t, kNumCategories>
    flush()
    {
        std::array<std::uint64_t, kNumCategories> dirty{};
        for (auto& set : sets_)
            for (Line& line : set) {
                if (line.valid && line.dirty)
                    dirty[static_cast<int>(line.cat)] += line_bytes_;
                line.valid = false;
            }
        return dirty;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t last_use = 0;
        TensorCategory cat = TensorCategory::Input;
        bool valid = false;
        bool dirty = false;
    };

    std::uint32_t line_bytes_;
    std::vector<std::vector<Line>> sets_;
    std::uint64_t tick_ = 0;
};

/** Random read/write stream with sequential runs and far jumps. */
void
expectMatchesReference(std::uint64_t sets, std::uint32_t ways,
                       std::uint32_t line_bytes, std::uint64_t seed)
{
    CacheConfig config;
    config.ways = ways;
    config.line_bytes = line_bytes;
    config.size_bytes = sets * ways * line_bytes;
    Cache cache(config);
    ReferenceCache ref(sets, ways, line_bytes);

    Rng rng(seed);
    const std::uint64_t span = 4 * config.size_bytes;
    std::uint64_t addr = 0;
    std::uint64_t hits = 0, misses = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rng.bernoulli(0.2))
            addr = rng.uniformInt(span);
        else
            addr = (addr + rng.uniformInt(2 * line_bytes)) % span;
        const bool write = rng.bernoulli(0.3);
        const auto cat = static_cast<TensorCategory>(
            rng.uniformInt(kNumCategories));
        const Cache::LineResult got = cache.accessLine(addr, write, cat);
        const Cache::LineResult want = ref.access(addr, write, cat);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
        if (want.writeback) {
            ASSERT_EQ(got.writeback_cat, want.writeback_cat)
                << "access " << i;
        }
        (want.hit ? hits : misses) += 1;
        if (i % 5000 == 4999) {
            ASSERT_EQ(cache.flush(), ref.flush()) << "flush at " << i;
        }
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_EQ(cache.flush(), ref.flush());
}

TEST(Cache, MatchesFullScanReferencePowerOfTwoSets)
{
    expectMatchesReference(16, 4, 64, 1);
    expectMatchesReference(256, 16, 64, 2); // the Table III geometry
    expectMatchesReference(1, 8, 32, 3);    // fully associative
}

TEST(Cache, MatchesFullScanReferenceOtherSetCounts)
{
    expectMatchesReference(3, 4, 64, 4);
    expectMatchesReference(100, 2, 128, 5);
}

} // namespace
} // namespace loas
