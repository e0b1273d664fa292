#include "core/scheduler.hh"

#include <algorithm>

#include "common/bitutil.hh"

namespace loas {

Scheduler::Scheduler(std::size_t m, std::size_t n, int num_pes)
    : m_(m), n_(n), num_pes_(num_pes)
{
}

std::size_t
Scheduler::waveCount() const
{
    return ceilDiv(m_ * n_, static_cast<std::size_t>(num_pes_));
}

std::vector<WorkItem>
Scheduler::wave(std::size_t w) const
{
    std::vector<WorkItem> items;
    wave(w, items);
    return items;
}

void
Scheduler::wave(std::size_t w, std::vector<WorkItem>& out) const
{
    // Row-tile-major walk: a tile of up to num_pes rows of A stays
    // resident while every output column streams past it (good input
    // reuse for the IP dataflow); within a tile, the PEs of a wave
    // share a column and its broadcast weight fiber.
    out.clear();
    const auto ts = static_cast<std::size_t>(num_pes_);
    const std::size_t begin = w * ts;
    if (begin >= m_ * n_)
        return;
    const std::size_t end = std::min(begin + ts, m_ * n_);
    out.reserve(end - begin);

    // Locate the wave's first item, then step down the tile's rows and
    // across its columns. A wave never leaves its tile: a full tile
    // holds n * num_pes items, a whole number of waves, and the short
    // last tile holds every item after the full ones.
    const std::size_t full_items = (m_ / ts) * ts * n_;
    std::size_t tile_row; // first row of the wave's tile
    std::size_t rows;     // rows in that tile
    std::size_t offset;   // items into the tile
    if (begin < full_items) {
        tile_row = begin / (n_ * ts) * ts;
        rows = ts;
        offset = begin - tile_row * n_;
    } else {
        tile_row = m_ / ts * ts;
        rows = m_ - tile_row;
        offset = begin - full_items;
    }
    std::size_t r = offset % rows;
    std::size_t c = offset / rows;
    for (std::size_t i = begin; i < end; ++i) {
        out.push_back(WorkItem{tile_row + r, c});
        if (++r == rows) {
            r = 0;
            ++c;
        }
    }
}

} // namespace loas
