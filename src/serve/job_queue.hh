/**
 * @file
 * Asynchronous simulation job queue: the submit/poll/cancel execution
 * model behind `loas_cli serve`. Turns the SimEngine's run-to-
 * completion API into long-lived service machinery:
 *
 *  - a bounded FIFO of submitted jobs drained by a worker pool (each
 *    worker runs one engine job matrix at a time; the engine itself
 *    parallelizes inside the run via common/parallel.hh);
 *  - one job per submit: every accepted submit gets its own id,
 *    deadline, cancel token and engine run, and its reply describes
 *    that run alone. Repeated work is shared one level down, by the
 *    CompiledCache the runs have in common: it compiles each artifact
 *    and executes each (layer, design) once, and replays the result
 *    to every later or concurrent run that asks for it;
 *  - admission control: submits beyond the queue-depth bound are
 *    rejected synchronously with a structured `queue_full` error —
 *    backpressure, never an unbounded queue or a hang;
 *  - cancellation and deadlines: a queued job cancels instantly; a
 *    running job's cancel sets its engine run's cooperative token
 *    (the run aborts at the next cell boundary). Deadlines are
 *    enforced lazily — at dequeue, poll() and wait() — which covers
 *    every observable path without a timer thread;
 *  - shutdown: draining (finish the queue, reject new submits) or
 *    immediate (cancel everything), both joining the workers.
 *
 * Results are retained for a bounded number of finished jobs so
 * pollers can fetch them; the oldest are dropped beyond that.
 *
 * Thread safety: every public member may be called from any thread
 * (the server's per-connection threads do).
 */

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/sim_engine.hh"
#include "serve/protocol.hh"

namespace loas {
namespace serve {

/** Async submit/poll/cancel queue over the SimEngine. */
class JobQueue
{
  public:
    struct Config
    {
        /** Concurrent engine runs (queue workers). */
        int workers = 1;

        /** Threads inside each engine run (0 = one per core). */
        int engine_threads = 0;

        /** Queued (not yet running) jobs admitted before submits are
         *  rejected with `queue_full`. */
        std::size_t max_depth = 64;

        /** Default per-job deadline from submit time; 0 = none.
         *  A RunSpec::timeout_ms overrides it per request. */
        double default_timeout_ms = 0.0;
    };

    enum class State
    {
        Queued,
        Running,
        Done,
        Cancelled,
        TimedOut,
        Failed
    };

    /** Wire name of a state ("queued", ..., "timeout", "failed"). */
    static const char* stateName(State state);
    static bool isTerminal(State state);

    /** Outcome of a submit: admitted as a new job or rejected with a
     *  structured error code. */
    struct Submitted
    {
        bool accepted = false;
        std::uint64_t id = 0;
        std::string error;    // "queue_full" | "shutting_down"
        std::string message;
    };

    /** Snapshot of one job, complete once the state is terminal. */
    struct Result
    {
        std::uint64_t id = 0;
        State state = State::Queued;

        double queue_ms = 0.0;    // submit -> dequeue
        double run_ms = 0.0;      // dequeue -> terminal (wall)
        double compile_ms = 0.0;  // engine prepare phase
        double sim_ms = 0.0;      // engine execute phase
        double synth_ms = 0.0;    // workload synthesis on misses
        std::uint64_t synth_layers = 0;

        /** Served throughput: batch x cell count / run wall time; set
         *  only in state Done. */
        double inferences_per_s = 0.0;

        /** Exact attributed cache counters of this job's run; gauges
         *  are the cache occupancy after it. */
        CompiledCache::Stats cache;

        /** Full report document (the `loas_cli run --json` bytes);
         *  set only in state Done. */
        std::shared_ptr<const std::string> report_json;

        std::string error;  // set in state Failed
    };

    /** Queue-level counters for the `stats` protocol command. */
    struct Counters
    {
        std::uint64_t submitted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t done = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t timed_out = 0;
        std::uint64_t failed = 0;
        std::size_t depth = 0;    // currently queued
        std::size_t running = 0;  // currently running
    };

    /** Executes one engine request; injectable so tests can block,
     *  observe or fake runs. Default: SimEngine().run. */
    using Runner = std::function<SimReport(const SimRequest&)>;

    /**
     * Start `config.workers` worker threads. `cache` is the shared
     * compiled-artifact cache every job run uses (null = each run
     * gets a private cache — tests mostly). The queue does not own
     * or configure the cache.
     */
    explicit JobQueue(Config config, CompiledCache* cache = nullptr,
                      Runner runner = {});

    /** shutdown(false) if still running. */
    ~JobQueue();

    JobQueue(const JobQueue&) = delete;
    JobQueue& operator=(const JobQueue&) = delete;

    /**
     * Admit a job (resolving and validating the spec now — throws
     * std::invalid_argument for unknown accelerators/networks) or
     * reject it with backpressure. Never blocks on simulation work.
     */
    Submitted submit(const RunSpec& spec);

    /** Snapshot a job; nullopt for unknown/expired ids. Enforces the
     *  job's deadline as a side effect. */
    std::optional<Result> poll(std::uint64_t id);

    /** Block until the job is terminal (or its deadline passes, which
     *  cancels it as TimedOut); nullopt for unknown ids. */
    std::optional<Result> wait(std::uint64_t id);

    /** Cancel a queued or running job. False: unknown or already
     *  terminal. */
    bool cancel(std::uint64_t id);

    Counters counters() const;

    /**
     * Stop the queue: reject further submits; with `drain` finish
     * every queued job first, otherwise cancel queued jobs and set
     * every running job's token. Joins the workers; idempotent.
     */
    void shutdown(bool drain);

  private:
    struct Job
    {
        /** What poll() and wait() return: id, state and outcome. */
        Result result;

        /** Resolved at submit; its cancel token is `cancel`. */
        SimRequest request;

        std::chrono::steady_clock::time_point enqueued;
        std::chrono::steady_clock::time_point deadline;
        bool has_deadline = false;

        /** The engine run's cooperative token: set by cancel(), a
         *  passed deadline or a non-drain shutdown while it runs. */
        std::atomic<bool> cancel{false};
    };

    void workerLoop();
    void finishLocked(Job& job, State state);
    /** Deadline check; cancels an expired non-terminal job. */
    void enforceDeadlineLocked(const std::shared_ptr<Job>& job);
    void cancelLocked(const std::shared_ptr<Job>& job, State state);

    const Config config_;
    CompiledCache* const cache_;
    const Runner runner_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;  // workers: queue or stop
    std::condition_variable done_cv_;  // waiters: state changes
    std::deque<std::shared_ptr<Job>> queue_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
    std::deque<std::uint64_t> finished_order_;
    Counters counters_;
    std::uint64_t next_id_ = 1;
    bool stopping_ = false;
    bool drain_ = true;

    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace loas
