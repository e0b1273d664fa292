/**
 * @file
 * Tests for the serve job queue: one job per submit, backpressure,
 * cancellation, deadlines and shutdown semantics. Most tests inject a
 * controllable Runner so the concurrency is deterministic — a job
 * "runs" until the test releases it; the last tests use the real
 * SimEngine to pin the once-only compile and execute through the
 * shared cache, and the cancellation contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hh"
#include "common/fault.hh"
#include "serve/job_queue.hh"
#include "serve/protocol.hh"

namespace loas {
namespace serve {
namespace {

/** Shared state of a runner the test can hold and release. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;
    int started = 0;
    std::vector<SimRequest> requests;

    void
    waitStarted(int n)
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return started >= n; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
        cv.notify_all();
    }
};

/** A fabricated report with one cell per (accel, network) of the
 *  request. */
SimReport
fakeReport(const SimRequest& request)
{
    SimReport report;
    for (const auto& accel : request.accels) {
        for (const auto& net : request.networks) {
            SimRun run;
            run.accel_spec = accel;
            run.network = net.name;
            run.result.total_cycles = 1 + run.accel_spec.size();
            report.runs.push_back(std::move(run));
        }
    }
    return report;
}

/** Runner blocking each run until the gate releases. */
JobQueue::Runner
gatedRunner(std::shared_ptr<Gate> gate)
{
    return [gate](const SimRequest& request) {
        std::unique_lock<std::mutex> lock(gate->mutex);
        ++gate->started;
        gate->requests.push_back(request);
        gate->cv.notify_all();
        gate->cv.wait(lock, [&] { return gate->released; });
        return fakeReport(request);
    };
}

/** Releases a gate on scope exit. Declared after the queue, it lets a
 *  test that stops at a failed assertion still join the worker its
 *  gated runner holds. */
struct ReleaseOnExit
{
    std::shared_ptr<Gate> gate;
    ~ReleaseOnExit() { gate->release(); }
};

/** Runner that spins until its cancel token trips, like the engine's
 *  cooperative checkpoints do, then aborts. */
JobQueue::Runner
cancellableRunner(std::shared_ptr<Gate> gate)
{
    return [gate](const SimRequest& request) -> SimReport {
        {
            std::lock_guard<std::mutex> lock(gate->mutex);
            ++gate->started;
            gate->cv.notify_all();
        }
        while (request.cancel == nullptr ||
               !request.cancel->load(std::memory_order_relaxed))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw SimCancelled();
    };
}

/** Network names must resolve at submit time, so even fake-runner
 *  tests use real ones; accel strings are free-form until a real
 *  engine touches them. */
RunSpec
spec(const std::string& accel,
     const std::string& network = "alexnet-l4")
{
    RunSpec out;
    out.accels = {accel};
    out.networks = {network};
    return out;
}

/** Queue config for the deterministic tests: one worker, small. */
JobQueue::Config
testConfig()
{
    JobQueue::Config config;
    config.workers = 1;
    config.engine_threads = 1;
    return config;
}

TEST(JobQueue, SubmitValidatesSpecUpFront)
{
    JobQueue queue(testConfig());
    RunSpec bad;
    bad.accels = {"loas"};
    bad.networks = {"no-such-network"};
    EXPECT_THROW(queue.submit(bad), std::invalid_argument);
    EXPECT_EQ(queue.counters().submitted, 0u);
}

TEST(JobQueue, IdenticalSubmitsAreIndependentJobs)
{
    auto gate = std::make_shared<Gate>();
    JobQueue queue(testConfig(), nullptr, gatedRunner(gate));
    const ReleaseOnExit release{gate};

    const auto running = queue.submit(spec("loas"));
    ASSERT_TRUE(running.accepted);
    gate->waitStarted(1); // holds the one worker

    const auto queued = queue.submit(spec("loas"));
    ASSERT_TRUE(queued.accepted);
    ASSERT_NE(queued.id, running.id);

    // Cancelling the identical queued job ends that job alone.
    EXPECT_TRUE(queue.cancel(queued.id));
    EXPECT_EQ(queue.poll(queued.id).value().state,
              JobQueue::State::Cancelled);
    EXPECT_EQ(queue.poll(running.id).value().state,
              JobQueue::State::Running);

    // So does the deadline of an identical submit.
    RunSpec timed = spec("loas");
    timed.timeout_ms = 20;
    const auto expiring = queue.submit(timed);
    ASSERT_TRUE(expiring.accepted);
    ASSERT_NE(expiring.id, running.id);
    ASSERT_NE(expiring.id, queued.id);
    const auto expired = queue.wait(expiring.id);
    ASSERT_TRUE(expired.has_value());
    EXPECT_EQ(expired->state, JobQueue::State::TimedOut);
    EXPECT_EQ(queue.poll(running.id).value().state,
              JobQueue::State::Running);

    gate->release();
    const auto done = queue.wait(running.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobQueue::State::Done);
    ASSERT_NE(done->report_json, nullptr);

    const auto counters = queue.counters();
    EXPECT_EQ(counters.submitted, 3u);
    EXPECT_EQ(counters.done, 1u);
    EXPECT_EQ(counters.cancelled, 1u);
    EXPECT_EQ(counters.timed_out, 1u);
    // Neither ended job reached the runner.
    EXPECT_EQ(gate->started, 1);
}

TEST(JobQueue, QueueFullSubmitsGetStructuredBackpressure)
{
    auto gate = std::make_shared<Gate>();
    JobQueue::Config config = testConfig();
    config.max_depth = 1;
    JobQueue queue(config, nullptr, gatedRunner(gate));
    const ReleaseOnExit release{gate};

    const auto running = queue.submit(spec("a"));
    ASSERT_TRUE(running.accepted);
    gate->waitStarted(1); // occupies the worker, not the queue

    const auto queued = queue.submit(spec("b"));
    ASSERT_TRUE(queued.accepted);

    const auto rejected = queue.submit(spec("c"));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.error, "queue_full");
    EXPECT_FALSE(rejected.message.empty());
    EXPECT_EQ(queue.counters().rejected, 1u);

    // Backpressure is not sticky: draining the queue readmits.
    gate->release();
    ASSERT_TRUE(queue.wait(queued.id).has_value());
    const auto readmitted = queue.submit(spec("c"));
    EXPECT_TRUE(readmitted.accepted);
    queue.shutdown(true);
}

TEST(JobQueue, CancelQueuedJobIsImmediate)
{
    auto gate = std::make_shared<Gate>();
    JobQueue queue(testConfig(), nullptr, gatedRunner(gate));
    const ReleaseOnExit release{gate};

    const auto running = queue.submit(spec("a"));
    gate->waitStarted(1);
    const auto queued = queue.submit(spec("b"));

    EXPECT_TRUE(queue.cancel(queued.id));
    const auto result = queue.poll(queued.id);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->state, JobQueue::State::Cancelled);
    EXPECT_FALSE(queue.cancel(queued.id)); // already terminal

    gate->release();
    const auto done = queue.wait(running.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobQueue::State::Done);
    EXPECT_EQ(queue.counters().cancelled, 1u);
    // The cancelled job never reached the runner.
    EXPECT_EQ(gate->started, 1);
}

TEST(JobQueue, CancelRunningJobTripsTheEngineToken)
{
    auto gate = std::make_shared<Gate>();
    JobQueue queue(testConfig(), nullptr, cancellableRunner(gate));

    const auto submitted = queue.submit(spec("a"));
    gate->waitStarted(1);

    EXPECT_TRUE(queue.cancel(submitted.id));
    const auto result = queue.wait(submitted.id);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->state, JobQueue::State::Cancelled);
    EXPECT_EQ(result->report_json, nullptr);
    queue.shutdown(true); // worker observed SimCancelled and is idle
    EXPECT_EQ(queue.counters().cancelled, 1u);
}

TEST(JobQueue, DeadlineExpiresQueuedJobAsTimeout)
{
    auto gate = std::make_shared<Gate>();
    JobQueue queue(testConfig(), nullptr, gatedRunner(gate));
    const ReleaseOnExit release{gate};

    const auto running = queue.submit(spec("a"));
    gate->waitStarted(1);

    RunSpec delayed = spec("b");
    delayed.timeout_ms = 20;
    const auto queued = queue.submit(delayed);
    ASSERT_TRUE(queued.accepted);

    // wait() enforces the deadline itself — no timer thread needed.
    const auto result = queue.wait(queued.id);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->state, JobQueue::State::TimedOut);
    EXPECT_EQ(queue.counters().timed_out, 1u);
    gate->release();
    queue.wait(running.id);
}

TEST(JobQueue, DrainShutdownFinishesQueuedJobsAndRejectsNew)
{
    JobQueue queue(testConfig(), nullptr,
                   [](const SimRequest& request) {
                       return fakeReport(request);
                   });
    std::vector<std::uint64_t> ids;
    const char* accels[] = {"a", "b", "c", "d"};
    for (const char* accel : accels) {
        const auto submitted = queue.submit(spec(accel));
        ASSERT_TRUE(submitted.accepted);
        ids.push_back(submitted.id);
    }
    queue.shutdown(true);
    for (const auto id : ids) {
        const auto result = queue.poll(id);
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(result->state, JobQueue::State::Done);
    }
    const auto late = queue.submit(spec("e"));
    EXPECT_FALSE(late.accepted);
    EXPECT_EQ(late.error, "shutting_down");
}

TEST(JobQueue, ImmediateShutdownCancelsQueuedAndRunningJobs)
{
    auto gate = std::make_shared<Gate>();
    JobQueue queue(testConfig(), nullptr, cancellableRunner(gate));

    const auto running = queue.submit(spec("a"));
    gate->waitStarted(1);
    const auto queued = queue.submit(spec("b"));

    queue.shutdown(false);
    const auto running_result = queue.poll(running.id);
    const auto queued_result = queue.poll(queued.id);
    ASSERT_TRUE(running_result.has_value());
    ASSERT_TRUE(queued_result.has_value());
    EXPECT_EQ(running_result->state, JobQueue::State::Cancelled);
    EXPECT_EQ(queued_result->state, JobQueue::State::Cancelled);
}

// --- Real-engine integration -------------------------------------

TEST(JobQueue, ConcurrentIdenticalRequestsCompileExactlyOnce)
{
    CompiledCache cache;
    JobQueue::Config config = testConfig();
    config.workers = 2;
    JobQueue queue(config, &cache);

    // alexnet-l4 x loas: exactly one compiled-artifact key.
    RunSpec request = spec("loas", "alexnet-l4");
    const auto first = queue.submit(request);
    const auto second = queue.submit(request);
    ASSERT_TRUE(first.accepted && second.accepted);
    EXPECT_NE(first.id, second.id);

    const auto first_result = queue.wait(first.id);
    const auto second_result = queue.wait(second.id);
    ASSERT_TRUE(first_result.has_value() &&
                second_result.has_value());
    EXPECT_EQ(first_result->state, JobQueue::State::Done);
    EXPECT_EQ(second_result->state, JobQueue::State::Done);

    // Two jobs, one compile and one execute, however their runs
    // interleaved: the shared cache compiled the artifact once, and
    // the other run replayed the executing run's result record.
    const CompiledCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    const CompiledCache::Stats& a = first_result->cache;
    const CompiledCache::Stats& b = second_result->cache;
    EXPECT_EQ(a.misses + b.misses, 1u);
    EXPECT_EQ(a.result_hits + b.result_hits, 1u);

    // A warm repeat attributes zero compiles to its own run.
    const auto warm = queue.submit(request);
    ASSERT_TRUE(warm.accepted);
    const auto warm_result = queue.wait(warm.id);
    ASSERT_TRUE(warm_result.has_value());
    EXPECT_EQ(warm_result->state, JobQueue::State::Done);
    EXPECT_EQ(warm_result->cache.misses, 0u);
    EXPECT_EQ(warm_result->cache.hits, 1u);
}

TEST(JobQueue, ServedReportMatchesOneShotEngineRunByteForByte)
{
    CompiledCache cache;
    JobQueue queue(testConfig(), &cache);

    RunSpec request;
    request.accels = {"loas", "sparten"};
    request.networks = {"alexnet-l4"};
    request.seed = 7;

    const auto submitted = queue.submit(request);
    ASSERT_TRUE(submitted.accepted);
    const auto served = queue.wait(submitted.id);
    ASSERT_TRUE(served.has_value());
    ASSERT_EQ(served->state, JobQueue::State::Done);
    ASSERT_NE(served->report_json, nullptr);

    const SimReport one_shot = SimEngine().run(toSimRequest(request));
    EXPECT_EQ(*served->report_json, json::toJson(one_shot));
}

TEST(JobQueue, InjectedEngineFaultLandsInFailedWithItsMessage)
{
    fault::reset();
    fault::configure("engine.execute=1");
    CompiledCache cache;
    JobQueue queue(testConfig(), &cache); // real SimEngine runner

    const auto submitted = queue.submit(spec("loas"));
    ASSERT_TRUE(submitted.accepted);
    const auto result = queue.wait(submitted.id);
    fault::reset();

    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->state, JobQueue::State::Failed);
    EXPECT_EQ(result->error, "injected fault at engine.execute");
    EXPECT_EQ(queue.counters().failed, 1u);

    // The queue keeps working after a failed job: the same submit,
    // disarmed, runs to completion.
    const auto retried = queue.submit(spec("loas"));
    ASSERT_TRUE(retried.accepted);
    const auto done = queue.wait(retried.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobQueue::State::Done);
}

TEST(SimEngineCancel, PreCancelledTokenAbortsTheRun)
{
    SimRequest request = toSimRequest(
        [] {
            RunSpec out;
            out.accels = {"loas"};
            out.networks = {"alexnet-l4"};
            return out;
        }());
    std::atomic<bool> token{true};
    request.cancel = &token;
    EXPECT_THROW(SimEngine().run(request), SimCancelled);
}

} // namespace
} // namespace serve
} // namespace loas
