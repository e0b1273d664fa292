/**
 * @file
 * Work scheduler: distributes output neurons across the TPPEs
 * (Section IV-D). Each TPPE produces one output neuron per wave; the
 * weight fiber of a column is broadcast to every TPPE working on that
 * column through the swizzle-switch crossbar. When a layer's M is
 * smaller than the PE count, one wave spans several consecutive
 * columns so the array stays utilized.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace loas {

/** One unit of PE work: produce output neuron (m, n). */
struct WorkItem
{
    std::size_t m;
    std::size_t n;
};

/** Static wave schedule over an M x N output space. */
class Scheduler
{
  public:
    Scheduler(std::size_t m, std::size_t n, int num_pes);

    /** Number of waves needed. */
    std::size_t waveCount() const;

    /** The work items of wave w (at most num_pes of them). */
    std::vector<WorkItem> wave(std::size_t w) const;

    /**
     * In-place variant for execute loops: clears `out` and fills it
     * with wave w's items, reusing its capacity so steady-state waves
     * allocate nothing.
     */
    void wave(std::size_t w, std::vector<WorkItem>& out) const;

  private:
    std::size_t m_;
    std::size_t n_;
    int num_pes_;
};

} // namespace loas
