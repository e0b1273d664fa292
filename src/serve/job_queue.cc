#include "serve/job_queue.hh"

#include <algorithm>
#include <chrono>

#include "api/json.hh"

namespace loas {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Finished jobs retained for poll(); the oldest are dropped. */
constexpr std::size_t kMaxFinished = 256;

double
msSince(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

} // namespace

const char*
JobQueue::stateName(State state)
{
    switch (state) {
      case State::Queued:
        return "queued";
      case State::Running:
        return "running";
      case State::Done:
        return "done";
      case State::Cancelled:
        return "cancelled";
      case State::TimedOut:
        return "timeout";
      case State::Failed:
        return "failed";
    }
    return "unknown";
}

bool
JobQueue::isTerminal(State state)
{
    return state != State::Queued && state != State::Running;
}

JobQueue::JobQueue(Config config, CompiledCache* cache, Runner runner)
    : config_(config), cache_(cache), runner_(std::move(runner))
{
    const int workers = std::max(1, config_.workers);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

JobQueue::~JobQueue()
{
    shutdown(false);
}

JobQueue::Submitted
JobQueue::submit(const RunSpec& spec)
{
    // Resolve outside the lock; std::invalid_argument propagates to
    // the caller as a bad_request before anything is enqueued.
    auto job = std::make_shared<Job>();
    job->request = toSimRequest(spec);
    job->request.threads = config_.engine_threads;
    job->request.compiled_cache = cache_;
    job->request.cancel = &job->cancel;
    job->enqueued = Clock::now();
    const double timeout_ms = spec.timeout_ms > 0
                                  ? spec.timeout_ms
                                  : config_.default_timeout_ms;
    if (timeout_ms > 0) {
        const auto timeout = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
        job->has_deadline = true;
        job->deadline = job->enqueued + timeout;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    Submitted out;
    if (stopping_) {
        ++counters_.rejected;
        out.error = "shutting_down";
        out.message = "server is shutting down";
        return out;
    }
    ++counters_.submitted;
    if (queue_.size() >= config_.max_depth) {
        ++counters_.rejected;
        out.error = "queue_full";
        out.message = "queue depth limit (" +
                      std::to_string(config_.max_depth) + ") reached";
        return out;
    }

    job->result.id = next_id_++;
    jobs_.emplace(job->result.id, job);
    queue_.push_back(job);
    work_cv_.notify_one();

    out.accepted = true;
    out.id = job->result.id;
    return out;
}

std::optional<JobQueue::Result>
JobQueue::poll(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    enforceDeadlineLocked(it->second);
    return it->second->result;
}

std::optional<JobQueue::Result>
JobQueue::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    std::shared_ptr<Job> job = it->second;
    while (true) {
        enforceDeadlineLocked(job);
        if (isTerminal(job->result.state))
            return job->result;
        if (job->has_deadline)
            done_cv_.wait_until(lock, job->deadline);
        else
            done_cv_.wait(lock);
    }
}

bool
JobQueue::cancel(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || isTerminal(it->second->result.state))
        return false;
    cancelLocked(it->second, State::Cancelled);
    done_cv_.notify_all();
    return true;
}

JobQueue::Counters
JobQueue::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Counters out = counters_;
    out.depth = queue_.size();
    return out;
}

void
JobQueue::shutdown(bool drain)
{
    std::vector<std::thread> workers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        // A non-drain shutdown always escalates; a drain request
        // never un-escalates one already in progress.
        if (!drain) {
            drain_ = false;
            while (!queue_.empty()) {
                std::shared_ptr<Job> job = queue_.front();
                cancelLocked(job, State::Cancelled);
            }
            // Running jobs: trip the engine token; the workers
            // observe SimCancelled (or a natural finish, if the run
            // was already past its last checkpoint) and settle the
            // job states themselves.
            for (auto& [id, job] : jobs_) {
                (void)id;
                if (job->result.state == State::Running)
                    job->cancel.store(true, std::memory_order_relaxed);
            }
        }
        workers.swap(workers_);
        work_cv_.notify_all();
        done_cv_.notify_all();
    }
    for (auto& worker : workers)
        worker.join();
}

void
JobQueue::workerLoop()
{
    SimEngine engine;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        work_cv_.wait(lock, [this] {
            return stopping_ || !queue_.empty();
        });
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }
        if (stopping_ && !drain_)
            return;

        std::shared_ptr<Job> job = queue_.front();
        queue_.pop_front();
        enforceDeadlineLocked(job);
        if (isTerminal(job->result.state)) {
            done_cv_.notify_all();
            continue;
        }
        job->result.state = State::Running;
        job->result.queue_ms = msSince(job->enqueued, Clock::now());
        ++counters_.running;
        done_cv_.notify_all();

        lock.unlock();
        SimReport report;
        bool cancelled = false;
        std::string error;
        const auto started = Clock::now();
        try {
            report = runner_ ? runner_(job->request)
                             : engine.run(job->request);
        } catch (const SimCancelled&) {
            cancelled = true;
        } catch (const std::exception& e) {
            error = e.what();
        }
        const double run_ms = msSince(started, Clock::now());
        lock.lock();

        Result& result = job->result;
        if (!isTerminal(result.state)) {  // else settled mid-run
            result.run_ms = run_ms;
            if (cancelled) {
                finishLocked(*job, State::Cancelled);
            } else if (!error.empty()) {
                result.error = error;
                finishLocked(*job, State::Failed);
            } else {
                result.compile_ms = report.compile_cache.compile_ms;
                result.sim_ms = report.sim_ms;
                result.synth_ms = report.synth_ms;
                result.synth_layers = report.synth_layers;
                if (run_ms > 0.0)
                    result.inferences_per_s =
                        static_cast<double>(job->request.batch *
                                            report.runs.size()) /
                        (run_ms / 1000.0);
                result.cache = report.compile_cache;
                result.report_json = std::make_shared<const std::string>(
                    json::toJson(report));
                finishLocked(*job, State::Done);
            }
        }
        done_cv_.notify_all();
    }
}

void
JobQueue::finishLocked(Job& job, State state)
{
    if (job.result.state == State::Running)
        --counters_.running;
    job.result.state = state;
    switch (state) {
      case State::Done:
        ++counters_.done;
        break;
      case State::Cancelled:
        ++counters_.cancelled;
        break;
      case State::TimedOut:
        ++counters_.timed_out;
        break;
      case State::Failed:
        ++counters_.failed;
        break;
      default:
        break;
    }
    finished_order_.push_back(job.result.id);
    while (finished_order_.size() > kMaxFinished) {
        jobs_.erase(finished_order_.front());
        finished_order_.pop_front();
    }
}

void
JobQueue::enforceDeadlineLocked(const std::shared_ptr<Job>& job)
{
    if (isTerminal(job->result.state) || !job->has_deadline)
        return;
    if (Clock::now() < job->deadline)
        return;
    cancelLocked(job, State::TimedOut);
}

void
JobQueue::cancelLocked(const std::shared_ptr<Job>& job, State state)
{
    if (isTerminal(job->result.state))
        return;
    // A queued job leaves the queue (a worker that already popped it
    // finds it terminal); a running one has its engine token tripped.
    if (job->result.state == State::Queued) {
        const auto it = std::find(queue_.begin(), queue_.end(), job);
        if (it != queue_.end())
            queue_.erase(it);
    } else {
        job->cancel.store(true, std::memory_order_relaxed);
    }
    finishLocked(*job, state);
}

} // namespace serve
} // namespace loas
