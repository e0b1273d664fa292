/**
 * @file
 * The fork-join loop the SimEngine spends its thread budget with.
 * SimEngine::run is its one caller, for the job matrix and for a
 * batched cell's inputs. Synthesis, prepare and execute never fork
 * beneath it, so `--threads N` bounds the threads a run uses. Every
 * worker writes disjoint, preallocated slots, so results are
 * bit-identical whatever the thread count.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace loas {

/**
 * Run `jobs` instances of `body(worker, job_index)` across `threads`
 * workers. Exceptions escaping a job are rethrown in the caller (first
 * one wins); remaining jobs still drain so the workers join cleanly.
 *
 * Each worker has a stable identity: `worker` is in [0, workers) where
 * `workers = min(threads, jobs)` (or 0 when the loop runs serially).
 * Jobs are still pulled off one atomic counter, so the job->worker
 * assignment is nondeterministic — callers must write results into
 * per-JOB slots and use the worker index only for scratch reuse.
 * The SimEngine's batch fan-out runs worker w on accelerator
 * instance w.
 */
template <typename Body>
void
parallelForWorkers(std::size_t jobs, int threads, Body&& body)
{
    if (threads <= 1 || jobs <= 1) {
        for (std::size_t i = 0; i < jobs; ++i)
            body(std::size_t{0}, i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;

    auto worker = [&](std::size_t w) {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs)
                return;
            if (failed.load())
                continue; // drain without doing more work
            try {
                body(w, i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true);
            }
        }
    };

    const std::size_t n_workers =
        std::min<std::size_t>(static_cast<std::size_t>(threads), jobs);
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w)
        pool.emplace_back(worker, w);
    for (auto& t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/** Requested thread count resolved: 0 = one per hardware thread. */
inline int
resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

} // namespace loas
