#include "serve/job_queue.hh"

#include <algorithm>
#include <chrono>

#include "api/json.hh"

namespace loas {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

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
    SimRequest request = toSimRequest(spec);
    request.threads = config_.engine_threads;
    request.compiled_cache = cache_;

    const std::string dedup = dedupKey(spec);
    const auto now = Clock::now();

    std::lock_guard<std::mutex> lock(mutex_);
    Submitted out;
    if (stopping_) {
        ++counters_.rejected;
        out.error = "shutting_down";
        out.message = "server is shutting down";
        return out;
    }
    ++counters_.submitted;

    const double timeout_ms = spec.timeout_ms > 0
                                  ? spec.timeout_ms
                                  : config_.default_timeout_ms;
    const auto deadlineFor = [&](double ms) {
        return now + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
    };

    if (auto it = inflight_.find(dedup); it != inflight_.end()) {
        // Identical request already queued or running: attach to it.
        // The job now answers for one more submitter, so it obeys the
        // LEAST restrictive of their deadlines, and cancel() needs one
        // vote per attachment before it really cancels.
        const std::shared_ptr<Job>& job = it->second;
        job->deduped = true;
        ++job->attached;
        if (timeout_ms <= 0) {
            job->has_deadline = false;
        } else if (job->has_deadline) {
            const auto deadline = deadlineFor(timeout_ms);
            if (deadline > job->deadline)
                job->deadline = deadline;
        }
        ++counters_.deduped;
        out.accepted = true;
        out.deduped = true;
        out.id = job->id;
        return out;
    }

    if (queue_.size() >= config_.max_depth) {
        ++counters_.rejected;
        out.error = "queue_full";
        out.message = "queue depth limit (" +
                      std::to_string(config_.max_depth) + ") reached";
        return out;
    }

    auto job = std::make_shared<Job>();
    job->id = next_id_++;
    job->spec = spec;
    job->request = std::move(request);
    job->dedup_key = dedup;
    job->coalesce_key = coalesceKey(spec);
    job->enqueued = now;
    if (timeout_ms > 0) {
        job->has_deadline = true;
        job->deadline = deadlineFor(timeout_ms);
    }

    jobs_.emplace(job->id, job);
    inflight_.emplace(job->dedup_key, job);
    queue_.push_back(job);
    work_cv_.notify_one();

    out.accepted = true;
    out.id = job->id;
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
    return snapshotLocked(*it->second);
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
        if (isTerminal(job->state))
            return snapshotLocked(*job);
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
    if (it == jobs_.end() || isTerminal(it->second->state))
        return false;
    // A deduped job answers for several submitters who all hold the
    // same id: each cancel detaches one of them, and only the last
    // detachment cancels the job the others no longer want.
    if (it->second->attached > 1) {
        --it->second->attached;
        return true;
    }
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
            // Running groups: trip the engine token; the workers
            // observe SimCancelled (or a natural finish, if the run
            // was already past its last checkpoint) and settle the
            // member states themselves.
            for (auto& [id, job] : jobs_) {
                (void)id;
                if (job->state == State::Running && job->group)
                    job->group->cancel.store(
                        true, std::memory_order_relaxed);
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

        const auto dequeued = Clock::now();
        std::shared_ptr<Job> first = queue_.front();
        queue_.pop_front();
        enforceDeadlineLocked(first);
        if (isTerminal(first->state)) {
            done_cv_.notify_all();
            continue;
        }

        auto group = std::make_shared<Group>();
        group->members.push_back(first);
        if (config_.coalesce) {
            for (auto it = queue_.begin(); it != queue_.end();) {
                std::shared_ptr<Job> other = *it;
                if (other->coalesce_key != first->coalesce_key) {
                    ++it;
                    continue;
                }
                it = queue_.erase(it);
                enforceDeadlineLocked(other);
                if (!isTerminal(other->state))
                    group->members.push_back(other);
            }
        }
        if (group->members.size() > 1)
            counters_.coalesced +=
                static_cast<std::uint64_t>(group->members.size() - 1);

        // The merged run: union of the members' accelerator lists in
        // first-seen order; networks/seed/energy are identical across
        // the group by construction of the coalesce key.
        SimRequest merged = first->request;
        merged.cancel = &group->cancel;
        for (std::size_t m = 1; m < group->members.size(); ++m) {
            for (const auto& accel :
                 group->members[m]->request.accels) {
                if (std::find(merged.accels.begin(),
                              merged.accels.end(),
                              accel) == merged.accels.end())
                    merged.accels.push_back(accel);
            }
        }

        for (auto& member : group->members) {
            member->state = State::Running;
            member->group = group;
            member->queue_ms = msSince(member->enqueued, dequeued);
            member->coalesced_with =
                static_cast<int>(group->members.size() - 1);
            ++counters_.running;
        }
        done_cv_.notify_all();

        lock.unlock();
        SimReport report;
        bool cancelled = false;
        std::string error;
        const auto started = Clock::now();
        try {
            report = runner_ ? runner_(merged) : engine.run(merged);
        } catch (const SimCancelled&) {
            cancelled = true;
        } catch (const std::exception& e) {
            error = e.what();
        }
        const double run_ms = msSince(started, Clock::now());
        lock.lock();

        for (auto& member : group->members) {
            if (isTerminal(member->state))
                continue;  // cancelled / timed out mid-run
            member->run_ms = run_ms;
            if (cancelled) {
                finishLocked(member, State::Cancelled);
                continue;
            }
            if (!error.empty()) {
                member->error = error;
                finishLocked(member, State::Failed);
                continue;
            }
            // Slice this member's cells back out of the merged
            // matrix, in the accel-major order its solo run would
            // have produced, and render the report document it would
            // have written.
            SimReport sliced;
            sliced.compile_cache = report.compile_cache;
            sliced.prepare_ms = report.prepare_ms;
            sliced.sim_ms = report.sim_ms;
            for (const auto& accel : member->request.accels) {
                for (const auto& network : member->request.networks) {
                    const SimRun* run =
                        report.find(accel, network.name);
                    if (run != nullptr)
                        sliced.runs.push_back(*run);
                }
            }
            member->compile_ms = report.compile_cache.compile_ms;
            member->sim_ms = report.sim_ms;
            member->synth_ms = report.synth_ms;
            member->synth_layers = report.synth_layers;
            // Throughput this job observed: its own inference count
            // (batch x sliced cells) over the shared run's wall time.
            if (run_ms > 0.0)
                member->inferences_per_s =
                    static_cast<double>(member->request.batch *
                                        sliced.runs.size()) /
                    (run_ms / 1000.0);
            member->cache = report.compile_cache;
            member->report_json = std::make_shared<const std::string>(
                json::toJson(sliced));
            finishLocked(member, State::Done);
        }
        for (auto& member : group->members)
            member->group.reset();
        done_cv_.notify_all();
    }
}

JobQueue::Result
JobQueue::snapshotLocked(const Job& job) const
{
    Result out;
    out.id = job.id;
    out.state = job.state;
    out.deduped = job.deduped;
    out.coalesced_with = job.coalesced_with;
    out.queue_ms = job.queue_ms;
    out.run_ms = job.run_ms;
    out.compile_ms = job.compile_ms;
    out.sim_ms = job.sim_ms;
    out.synth_ms = job.synth_ms;
    out.synth_layers = job.synth_layers;
    out.inferences_per_s = job.inferences_per_s;
    out.cache = job.cache;
    out.report_json = job.report_json;
    out.error = job.error;
    return out;
}

void
JobQueue::finishLocked(std::shared_ptr<Job> job, State state)
{
    if (job->state == State::Running)
        --counters_.running;
    job->state = state;
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
    if (auto it = inflight_.find(job->dedup_key);
        it != inflight_.end() && it->second == job)
        inflight_.erase(it);
    finished_order_.push_back(job->id);
    while (finished_order_.size() > config_.max_finished) {
        jobs_.erase(finished_order_.front());
        finished_order_.pop_front();
    }
}

void
JobQueue::enforceDeadlineLocked(const std::shared_ptr<Job>& job)
{
    if (isTerminal(job->state) || !job->has_deadline)
        return;
    if (Clock::now() < job->deadline)
        return;
    cancelLocked(job, State::TimedOut);
}

void
JobQueue::cancelLocked(const std::shared_ptr<Job>& job, State state)
{
    if (isTerminal(job->state))
        return;
    if (job->state == State::Queued) {
        removeQueuedLocked(job);
        finishLocked(job, state);
        return;
    }
    // Running: the member's outcome is settled now; the engine run is
    // told to abort only once EVERY member of its group has bowed out,
    // since the others still want its results.
    finishLocked(job, state);
    if (job->group) {
        ++job->group->cancel_votes;
        if (job->group->cancel_votes >= job->group->members.size())
            job->group->cancel.store(true, std::memory_order_relaxed);
    }
}

void
JobQueue::removeQueuedLocked(const std::shared_ptr<Job>& job)
{
    auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end())
        queue_.erase(it);
}

} // namespace serve
} // namespace loas
