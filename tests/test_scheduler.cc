/** @file Tests for the TPPE work scheduler. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/scheduler.hh"

namespace loas {
namespace {

TEST(Scheduler, CoversEveryOutputExactlyOnce)
{
    const Scheduler sched(7, 5, 16);
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (std::size_t w = 0; w < sched.waveCount(); ++w)
        for (const auto& item : sched.wave(w))
            EXPECT_TRUE(seen.insert({item.m, item.n}).second);
    EXPECT_EQ(seen.size(), 35u);
}

TEST(Scheduler, WaveCount)
{
    EXPECT_EQ(Scheduler(16, 512, 16).waveCount(), 512u);
    EXPECT_EQ(Scheduler(64, 256, 16).waveCount(), 1024u);
    EXPECT_EQ(Scheduler(1, 10, 16).waveCount(), 1u);
    EXPECT_EQ(Scheduler(17, 1, 16).waveCount(), 2u);
}

TEST(Scheduler, WavesShareColumnWhenMCoversPes)
{
    // M = 16 with 16 PEs: every wave is one column (the broadcast
    // pattern of Section IV-D).
    const Scheduler sched(16, 4, 16);
    for (std::size_t w = 0; w < sched.waveCount(); ++w) {
        const auto items = sched.wave(w);
        ASSERT_EQ(items.size(), 16u);
        for (const auto& item : items)
            EXPECT_EQ(item.n, items.front().n);
    }
}

TEST(Scheduler, SmallMSpansColumns)
{
    // M = 4: a 16-PE wave covers 4 columns, keeping the array busy.
    const Scheduler sched(4, 8, 16);
    const auto items = sched.wave(0);
    ASSERT_EQ(items.size(), 16u);
    std::set<std::size_t> cols;
    for (const auto& item : items)
        cols.insert(item.n);
    EXPECT_EQ(cols.size(), 4u);
}

TEST(Scheduler, LastWaveMayBePartial)
{
    const Scheduler sched(3, 3, 16);
    EXPECT_EQ(sched.waveCount(), 1u);
    EXPECT_EQ(sched.wave(0).size(), 9u);
}

TEST(Scheduler, OutOfRangeWaveIsEmpty)
{
    const Scheduler sched(4, 4, 16);
    EXPECT_EQ(sched.waveCount(), 1u);
    EXPECT_TRUE(sched.wave(1).empty());
    EXPECT_TRUE(sched.wave(100).empty());
}

TEST(Scheduler, RowTileStaysResidentAcrossColumns)
{
    // With M a multiple of the PE count, consecutive waves inside a
    // tile reuse the same 16 rows of A (the input-reuse property the
    // walk is designed for).
    const Scheduler sched(32, 8, 16);
    const auto w0 = sched.wave(0);
    const auto w1 = sched.wave(1);
    for (std::size_t i = 0; i < w0.size(); ++i) {
        EXPECT_EQ(w0[i].m, w1[i].m);
        EXPECT_NE(w0[i].n, w1[i].n);
    }
}

/** A wave's items by the per-item closed form the walk replaced. */
std::vector<WorkItem>
referenceWave(std::size_t m, std::size_t n, int num_pes, std::size_t w)
{
    const auto ts = static_cast<std::size_t>(num_pes);
    const std::size_t full_tiles = m / ts;
    const std::size_t items_per_full_tile = n * ts;
    const std::size_t full_items = full_tiles * items_per_full_tile;
    const std::size_t last_rows = m - full_tiles * ts;

    auto item_at = [&](std::size_t i) {
        if (i < full_items) {
            const std::size_t tile = i / items_per_full_tile;
            const std::size_t r = i % items_per_full_tile;
            return WorkItem{tile * ts + r % ts, r / ts};
        }
        const std::size_t r = i - full_items;
        return WorkItem{full_tiles * ts + r % last_rows, r / last_rows};
    };

    std::vector<WorkItem> out;
    const std::size_t begin = w * ts;
    for (std::size_t i = begin; i < std::min(begin + ts, m * n); ++i)
        out.push_back(item_at(i));
    return out;
}

TEST(Scheduler, IncrementalWalkMatchesClosedForm)
{
    // m < pes, m % pes != 0 (a short last tile), m % pes == 0, and
    // pes = 1; n from one column up.
    const std::size_t shapes[][2] = {{1, 1},  {3, 7},   {7, 5},
                                     {16, 4}, {17, 3},  {33, 9},
                                     {40, 1}, {100, 13}};
    std::vector<WorkItem> got;
    for (const int pes : {1, 3, 16, 64}) {
        for (const auto& [m, n] : shapes) {
            const Scheduler sched(m, n, pes);
            for (std::size_t w = 0; w <= sched.waveCount(); ++w) {
                sched.wave(w, got);
                const auto want = referenceWave(m, n, pes, w);
                ASSERT_EQ(got.size(), want.size())
                    << m << "x" << n << " pes=" << pes << " wave " << w;
                for (std::size_t i = 0; i < want.size(); ++i) {
                    EXPECT_EQ(got[i].m, want[i].m);
                    EXPECT_EQ(got[i].n, want[i].n);
                }
            }
        }
    }
}

} // namespace
} // namespace loas
