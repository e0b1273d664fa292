/**
 * @file
 * Socket-level tests of the serve daemon: the NDJSON protocol, the
 * golden-identity guarantee (a served report is byte-identical to the
 * one-shot `loas_cli run --json` document for the same parameters, on
 * every registered design), backpressure, cancellation over the wire,
 * and drain shutdown.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/accel_spec.hh"
#include "api/json.hh"
#include "api/registry.hh"
#include "api/versions.hh"
#include "common/fault.hh"
#include "serve/client.hh"
#include "serve/json_parse.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace loas {
namespace serve {
namespace {

/** Unique short socket path (sun_path caps at ~108 bytes). */
std::string
socketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/loas-serve-test-" + std::to_string(::getpid()) +
           "-" + std::to_string(counter++) + ".sock";
}

/** A server on its own thread + cache, torn down on destruction. */
class TestServer
{
  public:
    explicit TestServer(JobQueue::Config queue_config = {},
                        JobQueue::Runner runner = {})
    {
        Server::Config config;
        config.socket_path = socketPath();
        config.queue = queue_config;
        server = std::make_unique<Server>(config, &cache,
                                          std::move(runner));
        thread = std::thread([this] { server->run(); });
    }

    ~TestServer()
    {
        server->requestStop(true);
        thread.join();
    }

    const std::string& path() const { return server->socketPath(); }

    CompiledCache cache;
    std::unique_ptr<Server> server;
    std::thread thread;
};

TEST(Serve, ServedReportIsByteIdenticalToOneShotOnAllDesigns)
{
    // Every registered design in one request; alexnet-l4 keeps each
    // cell small while still exercising all seven simulators.
    std::string accels;
    for (const auto& key : AcceleratorRegistry::instance().keys())
        accels += (accels.empty() ? "" : ",") + key;

    TestServer server;
    ServeClient client(server.path());
    const JsonValue reply = client.callJson(
        "{\"cmd\": \"submit\", \"accel\": " + json::quote(accels) +
        ", \"network\": \"alexnet-l4\", \"seed\": 11}");
    ASSERT_TRUE(reply.getBool("ok", false));
    ASSERT_EQ(reply.getString("state", ""), "done");

    RunSpec one_shot;
    one_shot.accels = splitSpecList(accels);
    one_shot.networks = {"alexnet-l4"};
    one_shot.seed = 11;
    const SimReport report = SimEngine().run(toSimRequest(one_shot));

    const JsonValue* served = reply.get("report");
    ASSERT_NE(served, nullptr);
    ASSERT_TRUE(served->isString());
    EXPECT_EQ(served->string, json::toJson(report));

    // The per-request stats carry the exact cache attribution.
    const JsonValue* stats = reply.get("stats");
    ASSERT_NE(stats, nullptr);
    const JsonValue* cache = stats->get("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_GT(cache->getNumber("misses", 0), 0.0);
    EXPECT_GE(stats->getNumber("run_ms", -1), 0.0);
}

TEST(Serve, WarmRepeatRequestCompilesNothing)
{
    TestServer server;
    ServeClient client(server.path());
    const std::string submit =
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\"}";

    const JsonValue cold = client.callJson(submit);
    ASSERT_EQ(cold.getString("state", ""), "done");
    EXPECT_GT(cold.get("stats")->get("cache")->getNumber("misses", 0),
              0.0);
    EXPECT_EQ(cold.get("stats")->getNumber("synth_layers", -1), 1.0);

    // A hot request synthesizes nothing: every artifact is cached.
    const JsonValue warm = client.callJson(submit);
    ASSERT_EQ(warm.getString("state", ""), "done");
    const JsonValue* stats = warm.get("stats");
    EXPECT_EQ(stats->getNumber("synth_layers", -1), 0.0);
    EXPECT_EQ(stats->getNumber("synth_ms", -1), 0.0);
    const JsonValue* cache = stats->get("cache");
    EXPECT_EQ(cache->getNumber("misses", -1), 0.0);
    EXPECT_GT(cache->getNumber("hits", 0), 0.0);
    // ...and executes nothing: its one layer replays the cold run's
    // result record.
    EXPECT_EQ(
        cold.get("stats")->get("cache")->getNumber("result_hits", -1),
        0.0);
    EXPECT_EQ(cache->getNumber("result_hits", -1), 1.0);

    // Identical inputs, identical bytes — cold or warm.
    EXPECT_EQ(cold.get("report")->string, warm.get("report")->string);
}

TEST(Serve, VersionAndStatsCommands)
{
    TestServer server;
    ServeClient client(server.path());

    const JsonValue version = client.callJson("{\"cmd\": \"version\"}");
    EXPECT_TRUE(version.getBool("ok", false));
    const JsonValue* inner = version.get("version");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->getString("serve_schema", ""), kServeSchema);
    EXPECT_EQ(inner->getString("cli", ""), kCliVersion);
    EXPECT_EQ(inner->getString("bench_schema", ""), kBenchSchema);
    EXPECT_GT(inner->getNumber("artifact_format", 0), 0.0);

    const JsonValue stats = client.callJson("{\"cmd\": \"stats\"}");
    EXPECT_TRUE(stats.getBool("ok", false));
    ASSERT_NE(stats.get("queue"), nullptr);
    ASSERT_NE(stats.get("cache"), nullptr);
    EXPECT_EQ(stats.get("queue")->getNumber("submitted", -1), 0.0);
}

TEST(Serve, MalformedAndUnknownRequestsGetStructuredErrors)
{
    TestServer server;
    ServeClient client(server.path());

    const JsonValue garbage = client.callJson("this is not json");
    EXPECT_FALSE(garbage.getBool("ok", true));
    EXPECT_EQ(garbage.getString("error", ""), "bad_request");

    const JsonValue unknown_cmd =
        client.callJson("{\"cmd\": \"frobnicate\"}");
    EXPECT_EQ(unknown_cmd.getString("error", ""), "bad_request");

    const JsonValue bad_network = client.callJson(
        "{\"cmd\": \"submit\", \"network\": \"no-such-net\"}");
    EXPECT_EQ(bad_network.getString("error", ""), "bad_request");

    const JsonValue unknown_id =
        client.callJson("{\"cmd\": \"poll\", \"id\": 424242}");
    EXPECT_EQ(unknown_id.getString("error", ""), "unknown_id");

    // uint64 fields ride in JSON doubles, exact only below 2^53; a
    // seed that would silently round to a DIFFERENT integer must be
    // rejected, not simulated with the rounded value.
    const JsonValue big_seed = client.callJson(
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\", \"seed\": 9007199254740993}");
    EXPECT_EQ(big_seed.getString("error", ""), "bad_request");

    const JsonValue big_id =
        client.callJson("{\"cmd\": \"poll\", \"id\": 1e300}");
    EXPECT_EQ(big_id.getString("error", ""), "bad_request");
}

TEST(Serve, OversizedRequestLineGetsBadRequestAndClose)
{
    TestServer server;

    // Raw socket: stream past the 1 MiB line cap WITHOUT a newline,
    // stop, and expect a bad_request reply followed by EOF instead of
    // the server buffering our bytes forever.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, server.path().c_str(),
                server.path().size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);

    const std::string blob((1 << 20) + (1 << 12), 'x');
    std::size_t off = 0;
    while (off < blob.size()) {
        const ssize_t n = ::send(fd, blob.data() + off,
                                 blob.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }

    std::string reply;
    char chunk[4096];
    while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF: the server closed the connection
        reply.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);

    const std::size_t newline_at = reply.find('\n');
    ASSERT_NE(newline_at, std::string::npos);
    const JsonValue parsed = parseJson(reply.substr(0, newline_at));
    EXPECT_FALSE(parsed.getBool("ok", true));
    EXPECT_EQ(parsed.getString("error", ""), "bad_request");
}

TEST(Serve, FinishedConnectionsAreReapedNotAccumulated)
{
    const auto openFds = [] {
        std::size_t count = 0;
        for (const auto& entry :
             std::filesystem::directory_iterator("/proc/self/fd")) {
            (void)entry;
            ++count;
        }
        return count;
    };

    TestServer server;
    {
        ServeClient warm(server.path());
        warm.callJson("{\"cmd\": \"stats\"}");
    }
    const std::size_t baseline = openFds();

    for (int i = 0; i < 32; ++i) {
        ServeClient client(server.path());
        client.callJson("{\"cmd\": \"stats\"}");
    }

    // Each accept reaps connections already finished; the EOF handlers
    // run asynchronously, so keep poking until the fd table settles
    // back to its baseline neighbourhood.
    std::size_t now = 0;
    for (int attempt = 0; attempt < 200; ++attempt) {
        {
            ServeClient poke(server.path());
            poke.callJson("{\"cmd\": \"stats\"}");
        }
        now = openFds();
        if (now <= baseline + 6)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_LE(now, baseline + 6);
}

TEST(Serve, AcceptAtTheFdLimitBacksOffInsteadOfSpinning)
{
    Server::Config config;
    config.socket_path = socketPath();
    CompiledCache cache;
    Server server(config, &cache);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, server.socketPath().c_str(),
                server.socketPath().size() + 1);
    const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(client, 0);
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    int highest = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        highest = std::max(highest,
                           std::stoi(entry.path().filename().string()));

    // No ASSERT past this point: the thread must be joined and the fd
    // limit restored whatever fails.
    std::thread thread([&server] { server.run(); });

    // Fill the fd table: lower the soft limit to just above the
    // highest open fd, then dup() until EMFILE.
    rlimit low = saved;
    low.rlim_cur = static_cast<rlim_t>(highest) + 16;
    std::vector<int> fillers;
    if (::setrlimit(RLIMIT_NOFILE, &low) == 0) {
        for (int fd; (fd = ::dup(client)) >= 0;)
            fillers.push_back(fd);
        EXPECT_EQ(errno, EMFILE);
    } else {
        ADD_FAILURE() << "cannot lower RLIMIT_NOFILE";
    }

    // One queued connect leaves the listen socket readable and accept
    // failing with EMFILE.
    EXPECT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    clockid_t cpu_clock{};
    EXPECT_EQ(::pthread_getcpuclockid(thread.native_handle(), &cpu_clock),
              0);
    const auto cpu_ms = [&] {
        timespec ts{};
        ::clock_gettime(cpu_clock, &ts);
        return static_cast<double>(ts.tv_sec) * 1e3 +
               static_cast<double>(ts.tv_nsec) / 1e6;
    };
    const double cpu_before = cpu_ms();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    EXPECT_LT(cpu_ms() - cpu_before, 100.0); // < 10% of a core

    // Freed fds: the queued client is accepted and served.
    for (const int fd : fillers)
        ::close(fd);
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    const std::string request = "{\"cmd\": \"version\"}\n";
    EXPECT_EQ(::send(client, request.data(), request.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    pollfd readable = {client, POLLIN, 0};
    EXPECT_EQ(::poll(&readable, 1, 5000), 1);
    ::close(client);

    // requestStop() ends a back-off wait at once.
    const auto t_stop = std::chrono::steady_clock::now();
    server.requestStop(true);
    thread.join();
    EXPECT_LT(std::chrono::steady_clock::now() - t_stop,
              std::chrono::seconds(1));
}

TEST(Serve, FullQueueRepliesWithBackpressureNotAHang)
{
    JobQueue::Config config;
    config.max_depth = 0; // every submit beyond the workers bounces
    TestServer server(config, [](const SimRequest&) {
        // Never reached: nothing is ever admitted.
        return SimReport{};
    });
    ServeClient client(server.path());

    const JsonValue reply = client.callJson(
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\"}");
    EXPECT_FALSE(reply.getBool("ok", true));
    EXPECT_EQ(reply.getString("error", ""), "queue_full");
    EXPECT_FALSE(reply.getString("message", "").empty());
}

TEST(Serve, CancelOverTheWire)
{
    // Runner parks until its cancel token trips, like the engine's
    // cooperative checkpoints.
    TestServer server({}, [](const SimRequest& request) -> SimReport {
        while (request.cancel == nullptr ||
               !request.cancel->load(std::memory_order_relaxed))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw SimCancelled();
    });
    ServeClient client(server.path());

    const JsonValue submitted = client.callJson(
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\", \"wait\": false}");
    ASSERT_TRUE(submitted.getBool("ok", false));
    const auto id = static_cast<std::uint64_t>(
        submitted.getNumber("id", 0));

    const JsonValue cancelled = client.callJson(
        "{\"cmd\": \"cancel\", \"id\": " + std::to_string(id) + "}");
    EXPECT_TRUE(cancelled.getBool("ok", false));
    EXPECT_TRUE(cancelled.getBool("cancelled", false));

    const JsonValue polled = client.callJson(
        "{\"cmd\": \"poll\", \"id\": " + std::to_string(id) + "}");
    EXPECT_EQ(polled.getString("state", ""), "cancelled");

    // Cancelling a terminal job is a no-op, reported as such.
    const JsonValue again = client.callJson(
        "{\"cmd\": \"cancel\", \"id\": " + std::to_string(id) + "}");
    EXPECT_TRUE(again.getBool("ok", false));
    EXPECT_FALSE(again.getBool("cancelled", true));
}

TEST(Serve, ShutdownCommandDrainsInFlightJobs)
{
    Server::Config config;
    config.socket_path = socketPath();
    CompiledCache cache;
    Server server(config, &cache);
    std::thread thread([&server] { server.run(); });

    {
        ServeClient client(server.socketPath());
        const JsonValue submitted = client.callJson(
            "{\"cmd\": \"submit\", \"accel\": \"loas\", "
            "\"network\": \"alexnet-l4\", \"wait\": false}");
        ASSERT_TRUE(submitted.getBool("ok", false));
        const JsonValue stopping =
            client.callJson("{\"cmd\": \"shutdown\", \"drain\": true}");
        EXPECT_TRUE(stopping.getBool("ok", false));
        EXPECT_TRUE(stopping.getBool("stopping", false));
    }
    thread.join(); // run() returns only after the queue drained

    const JobQueue::Counters counters = server.queue().counters();
    EXPECT_EQ(counters.done, 1u);
    EXPECT_EQ(counters.cancelled, 0u);
    EXPECT_EQ(counters.failed, 0u);
}

TEST(Serve, ConcurrentIdenticalClientsShareOneCompile)
{
    TestServer server;
    const std::string submit =
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\", \"seed\": 3}";

    std::string reports[3];
    std::thread clients[3];
    for (int i = 0; i < 3; ++i) {
        clients[i] = std::thread([&, i] {
            ServeClient client(server.path());
            const JsonValue reply = client.callJson(submit);
            if (reply.getString("state", "") == "done" &&
                reply.get("report") != nullptr)
                reports[i] = reply.get("report")->string;
        });
    }
    for (auto& client : clients)
        client.join();

    ASSERT_FALSE(reports[0].empty());
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[0], reports[2]);
    // Three jobs on one compiled-artifact key: one compile and one
    // execute, and the other two runs replay the result record.
    EXPECT_EQ(server.cache.stats().misses, 1u);
    EXPECT_EQ(server.cache.stats().result_hits, 2u);
}

/** Tests below arm the process-global fault registry; disarm after. */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard() { fault::reset(); }
};

TEST(ServeFaults, FailedJobIsStructuredAndTheDaemonSurvives)
{
    TestServer server({}, [](const SimRequest&) -> SimReport {
        throw std::runtime_error("boom: engine exploded");
    });
    ServeClient client(server.path());

    const JsonValue reply = client.callJson(
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\"}");
    EXPECT_TRUE(reply.getBool("ok", false)); // outcome, not an error
    EXPECT_EQ(reply.getString("state", ""), "failed");
    EXPECT_EQ(reply.getString("error", ""), "boom: engine exploded");
    EXPECT_EQ(reply.getString("message", ""),
              "boom: engine exploded");
    EXPECT_EQ(reply.get("report"), nullptr);

    // Polling the failed id keeps returning the structured error, and
    // the daemon is fully alive for unrelated commands.
    const auto id =
        static_cast<std::uint64_t>(reply.getNumber("id", 0));
    const JsonValue polled = client.callJson(
        "{\"cmd\": \"poll\", \"id\": " + std::to_string(id) + "}");
    EXPECT_EQ(polled.getString("state", ""), "failed");
    EXPECT_EQ(polled.getString("error", ""), "boom: engine exploded");
    const JsonValue stats = client.callJson("{\"cmd\": \"stats\"}");
    EXPECT_TRUE(stats.getBool("ok", false));
    EXPECT_EQ(stats.get("queue")->getNumber("failed", 0), 1.0);
}

TEST(ServeFaults, InjectedEngineFaultFailsTheJobNotTheDaemon)
{
    FaultGuard guard;
    TestServer server; // real engine
    ServeClient client(server.path());

    fault::configure("engine.execute=1");
    const JsonValue faulted = client.callJson(
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\"}");
    EXPECT_EQ(faulted.getString("state", ""), "failed");
    EXPECT_EQ(faulted.getString("error", ""),
              "injected fault at engine.execute");

    // Disarmed, the very same daemon serves the same request fine.
    fault::reset();
    const JsonValue healed = client.callJson(
        "{\"cmd\": \"submit\", \"accel\": \"loas\", "
        "\"network\": \"alexnet-l4\"}");
    EXPECT_EQ(healed.getString("state", ""), "done");
    ASSERT_NE(healed.get("report"), nullptr);
}

TEST(ServeFaults, DroppedRepliesCostTheConnectionNotTheDaemon)
{
    FaultGuard guard;
    TestServer server({}, [](const SimRequest& request) {
        SimReport report;
        for (const auto& accel : request.accels)
            for (const auto& net : request.networks) {
                SimRun run;
                run.accel_spec = accel;
                run.network = net.name;
                run.result.total_cycles = 1;
                report.runs.push_back(std::move(run));
            }
        return report;
    });

    // Every reply write fails: the client sees a dropped connection,
    // never a hung call or a dead daemon.
    fault::configure("socket.write=1");
    {
        ServeClient client(server.path());
        EXPECT_THROW(client.call("{\"cmd\": \"stats\"}"),
                     std::runtime_error);
    }
    // Read faults likewise close the connection before a reply.
    fault::configure("socket.read=1");
    {
        ServeClient client(server.path());
        EXPECT_THROW(client.call("{\"cmd\": \"stats\"}"),
                     std::runtime_error);
    }

    fault::reset();
    ServeClient client(server.path());
    const JsonValue stats = client.callJson("{\"cmd\": \"stats\"}");
    EXPECT_TRUE(stats.getBool("ok", false));
}

TEST(ServeFaults, RetryWithBackoffRidesOutALateStartingDaemon)
{
    // The daemon binds its socket ~150 ms after the client's first
    // connect attempt; callWithRetry must absorb the refusals and
    // deliver the reply.
    const std::string path = socketPath();
    CompiledCache cache;
    std::unique_ptr<Server> server;
    std::thread server_thread;
    std::thread starter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        Server::Config config;
        config.socket_path = path;
        server = std::make_unique<Server>(config, &cache);
        server_thread = std::thread([&] { server->run(); });
    });

    RetryPolicy policy;
    policy.retries = 50;
    policy.backoff_ms = 10.0;
    policy.max_backoff_ms = 100.0;
    const std::string reply =
        callWithRetry(path, "{\"cmd\": \"version\"}", policy);
    EXPECT_TRUE(parseJson(reply).getBool("ok", false));

    starter.join();
    server->requestStop(true);
    server_thread.join();
}

TEST(ServeFaults, ExhaustedRetriesSurfaceTheTransportError)
{
    RetryPolicy policy;
    policy.retries = 2;
    policy.backoff_ms = 1.0;
    EXPECT_THROW(callWithRetry("/tmp/loas-no-such-daemon.sock",
                               "{\"cmd\": \"stats\"}", policy),
                 std::runtime_error);
}

} // namespace
} // namespace serve
} // namespace loas
