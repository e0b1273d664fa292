#include "tensor/spike_tensor.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace loas {

SpikeTensor::SpikeTensor(std::size_t rows, std::size_t cols, int timesteps)
    : rows_(rows), cols_(cols), timesteps_(timesteps),
      words_(rows, cols, 0)
{
    if (timesteps < 1 || timesteps > kMaxTimesteps) {
        fatal("SpikeTensor timesteps %d outside [1, %d]", timesteps,
              kMaxTimesteps);
    }
}

void
SpikeTensor::reset(std::size_t rows, std::size_t cols, int timesteps)
{
    if (rows == rows_ && cols == cols_ && timesteps == timesteps_) {
        auto& data = words_.data();
        std::fill(data.begin(), data.end(), TimeWord{0});
        return;
    }
    *this = SpikeTensor(rows, cols, timesteps);
}

TimeWord
SpikeTensor::word(std::size_t r, std::size_t c) const
{
    return words_.at(r, c);
}

void
SpikeTensor::setWord(std::size_t r, std::size_t c, TimeWord w)
{
    if (timesteps_ < kMaxTimesteps && (w >> timesteps_) != 0)
        panic("setWord: bits above timestep count (w=0x%x, T=%d)", w,
              timesteps_);
    words_.at(r, c) = w;
}

TimeWord*
SpikeTensor::rowWords(std::size_t r)
{
    if (r >= rows_)
        panic("rowWords: row %zu of %zu", r, rows_);
    return words_.data().data() + r * cols_;
}

const TimeWord*
SpikeTensor::rowWords(std::size_t r) const
{
    if (r >= rows_)
        panic("rowWords: row %zu of %zu", r, rows_);
    return words_.data().data() + r * cols_;
}

bool
SpikeTensor::spike(std::size_t r, std::size_t c, int t) const
{
    if (t < 0 || t >= timesteps_)
        panic("spike timestep %d outside [0, %d)", t, timesteps_);
    return (words_.at(r, c) >> t) & 1u;
}

void
SpikeTensor::setSpike(std::size_t r, std::size_t c, int t, bool value)
{
    if (t < 0 || t >= timesteps_)
        panic("setSpike timestep %d outside [0, %d)", t, timesteps_);
    TimeWord w = words_.at(r, c);
    if (value)
        w |= (TimeWord{1} << t);
    else
        w &= ~(TimeWord{1} << t);
    words_.at(r, c) = w;
}

std::uint64_t
SpikeTensor::countSpikes() const
{
    std::uint64_t count = 0;
    for (const auto w : words_.data())
        count += static_cast<std::uint64_t>(popcount64(w));
    return count;
}

double
SpikeTensor::originSparsity() const
{
    const double total =
        static_cast<double>(rows_ * cols_) * timesteps_;
    if (total == 0.0)
        return 0.0;
    return 1.0 - static_cast<double>(countSpikes()) / total;
}

std::size_t
SpikeTensor::silentCount() const
{
    std::size_t count = 0;
    for (const auto w : words_.data())
        if (w == 0)
            ++count;
    return count;
}

double
SpikeTensor::silentRatio() const
{
    if (rows_ * cols_ == 0)
        return 0.0;
    return static_cast<double>(silentCount()) /
           static_cast<double>(rows_ * cols_);
}

std::size_t
SpikeTensor::singleSpikeCount() const
{
    std::size_t count = 0;
    for (const auto w : words_.data())
        if (popcount64(w) == 1)
            ++count;
    return count;
}

std::size_t
SpikeTensor::denseBytes() const
{
    return ceilDiv<std::size_t>(rows_ * cols_ *
                                static_cast<std::size_t>(timesteps_), 8);
}

std::size_t
SpikeTensor::denseBytesPerTimestep() const
{
    return ceilDiv<std::size_t>(rows_ * cols_, 8);
}

} // namespace loas
