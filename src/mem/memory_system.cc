#include "mem/memory_system.hh"

#include <cmath>

namespace loas {

const char*
tensorCategoryName(TensorCategory cat)
{
    switch (cat) {
      case TensorCategory::Input:
        return "input";
      case TensorCategory::Weight:
        return "weight";
      case TensorCategory::Psum:
        return "psum";
      case TensorCategory::Output:
        return "output";
      case TensorCategory::Meta:
        return "meta";
      default:
        return "?";
    }
}

MemorySystem::MemorySystem(const CacheConfig& cache_config,
                           const DramConfig& dram_config)
    : cache_(cache_config), dram_(dram_config)
{
}

void
MemorySystem::read(TensorCategory cat, std::uint64_t addr,
                   std::uint64_t bytes)
{
    readRun(cat, addr, bytes, bytes);
}

void
MemorySystem::readRun(TensorCategory cat, std::uint64_t addr,
                      std::uint64_t bytes, std::uint64_t payload_bytes)
{
    const int c = static_cast<int>(cat);
    stats_.sram_read[c] += payload_bytes;
    const std::uint32_t line = cache_.config().line_bytes;
    const int shift = cache_.lineShift();
    const std::uint64_t first = addr >> shift;
    const std::uint64_t last = (addr + (bytes ? bytes - 1 : 0)) >> shift;
    for (std::uint64_t l = first; l <= last; ++l) {
        const auto result = cache_.accessLine(l << shift, false, cat);
        if (!result.hit)
            stats_.dram_read[c] += line;
        if (result.writeback) {
            stats_.dram_write[static_cast<int>(result.writeback_cat)] +=
                line;
        }
    }
}

void
MemorySystem::write(TensorCategory cat, std::uint64_t addr,
                    std::uint64_t bytes)
{
    const int c = static_cast<int>(cat);
    stats_.sram_write[c] += bytes;
    const std::uint32_t line = cache_.config().line_bytes;
    const int shift = cache_.lineShift();
    const std::uint64_t first = addr >> shift;
    const std::uint64_t last = (addr + (bytes ? bytes - 1 : 0)) >> shift;
    for (std::uint64_t l = first; l <= last; ++l) {
        const auto result = cache_.accessLine(l << shift, true, cat);
        if (!result.hit)
            stats_.dram_read[c] += line; // write-allocate fill
        if (result.writeback) {
            stats_.dram_write[static_cast<int>(result.writeback_cat)] +=
                line;
        }
    }
}

void
MemorySystem::streamRead(TensorCategory cat, std::uint64_t bytes)
{
    stats_.dram_read[static_cast<int>(cat)] += bytes;
}

void
MemorySystem::streamWrite(TensorCategory cat, std::uint64_t bytes)
{
    stats_.dram_write[static_cast<int>(cat)] += bytes;
}

void
MemorySystem::scratchRead(TensorCategory cat, std::uint64_t bytes)
{
    stats_.sram_read[static_cast<int>(cat)] += bytes;
}

void
MemorySystem::scratchWrite(TensorCategory cat, std::uint64_t bytes)
{
    stats_.sram_write[static_cast<int>(cat)] += bytes;
}

void
MemorySystem::flushCache()
{
    const auto dirty = cache_.flush();
    for (int c = 0; c < kNumCategories; ++c)
        stats_.dram_write[c] += dirty[static_cast<std::size_t>(c)];
}

void
MemorySystem::reset()
{
    cache_.reset();
    stats_ = TrafficStats{};
}

std::uint64_t
MemorySystem::dramCycles() const
{
    return dramCyclesFor(dramBytes());
}

std::uint64_t
MemorySystem::dramCyclesFor(std::uint64_t bytes) const
{
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(bytes) / dram_.bytes_per_cycle));
}

} // namespace loas
