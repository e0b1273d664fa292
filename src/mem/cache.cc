#include "mem/cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace loas {

Cache::Cache(const CacheConfig& config) : config_(config)
{
    if (!isPow2(config.line_bytes))
        fatal("cache line size %u is not a power of two",
              config.line_bytes);
    const std::uint64_t lines = config.size_bytes / config.line_bytes;
    if (lines == 0 || lines % config.ways != 0)
        fatal("cache geometry invalid: %llu lines, %u ways",
              static_cast<unsigned long long>(lines), config.ways);
    num_sets_ = lines / config.ways;
    line_shift_ = floorLog2(config.line_bytes);
    sets_pow2_ = isPow2(num_sets_);
    lines_.resize(lines);
    mru_.resize(num_sets_);
}

Cache::LineResult
Cache::accessLine(std::uint64_t addr, bool write, TensorCategory cat)
{
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = sets_pow2_ ? line_addr & (num_sets_ - 1)
                                         : line_addr % num_sets_;
    Line* const set_base = &lines_[set * config_.ways];
    ++tick_;

    LineResult result{false, false, TensorCategory::Input};

    // A tag lives in at most one way of its set, so a hit on the
    // set's most recently used way is the line the scan would find.
    std::uint32_t& mru = mru_[set];
    const auto hitLine = [&](Line& line) {
        line.last_use = tick_;
        line.dirty = line.dirty || write;
        ++hits_;
        result.hit = true;
    };
    if (set_base[mru].valid && set_base[mru].tag == line_addr) {
        hitLine(set_base[mru]);
        return result;
    }

    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        Line& line = set_base[w];
        if (line.valid && line.tag == line_addr) {
            hitLine(line);
            mru = w;
            return result;
        }
        if (!victim || !line.valid ||
            (victim->valid && line.last_use < victim->last_use)) {
            if (!victim || victim->valid)
                victim = &line;
        }
    }

    ++misses_;
    if (victim->valid && victim->dirty) {
        result.writeback = true;
        result.writeback_cat = victim->cat;
    }
    victim->valid = true;
    victim->dirty = write;
    victim->tag = line_addr;
    victim->last_use = tick_;
    victim->cat = cat;
    mru = static_cast<std::uint32_t>(victim - set_base);
    return result;
}

std::array<std::uint64_t, kNumCategories>
Cache::flush()
{
    std::array<std::uint64_t, kNumCategories> dirty_bytes{};
    for (auto& line : lines_) {
        if (line.valid && line.dirty)
            dirty_bytes[static_cast<int>(line.cat)] += config_.line_bytes;
        line.valid = false;
        line.dirty = false;
    }
    return dirty_bytes;
}

void
Cache::reset()
{
    for (auto& line : lines_)
        line = Line{};
    mru_.assign(mru_.size(), 0);
    tick_ = 0;
    hits_ = 0;
    misses_ = 0;
}

} // namespace loas
