#include "serve/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "api/json.hh"
#include "api/versions.hh"
#include "common/fault.hh"
#include "common/parallel.hh"
#include "core/kernel_dispatch.hh"
#include "serve/json_parse.hh"

namespace loas {
namespace serve {

namespace {

/** A request line still missing its newline beyond this many bytes
 *  gets a bad_request reply and the connection closed, bounding the
 *  per-connection buffer a hostile client can grow. */
constexpr std::size_t kMaxRequestLineBytes = 1 << 20;

/** Accept-loop back-off when accept() runs out of fds. */
constexpr int kAcceptBackoffMs = 50;

/** write() the whole buffer, riding out EINTR/short writes. */
bool
writeAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

std::uint64_t
requireId(const JsonValue& request)
{
    if (request.get("id") == nullptr)
        throw std::invalid_argument("field 'id' is required");
    return getUintField(request, "id", 0);
}

} // namespace

Server::Server(Config config, CompiledCache* cache,
               JobQueue::Runner runner)
    : socket_path_(config.socket_path),
      queue_config_(config.queue),
      queue_(std::make_unique<JobQueue>(config.queue, cache,
                                        std::move(runner))),
      cache_(cache)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path_.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long: " +
                                 socket_path_);
    std::memcpy(addr.sun_path, socket_path_.c_str(),
                socket_path_.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        throw std::runtime_error(std::string("socket(): ") +
                                 std::strerror(errno));

    const auto tryBind = [&] {
        return ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0;
    };
    if (!tryBind()) {
        // A leftover socket file from a crashed server makes bind
        // fail EADDRINUSE; connect() distinguishes it from a live
        // server, and a dead one's path is safe to reclaim.
        bool recovered = false;
        if (errno == EADDRINUSE) {
            const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            const bool live =
                probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0;
            if (probe >= 0)
                ::close(probe);
            if (!live) {
                ::unlink(socket_path_.c_str());
                recovered = tryBind();
            }
        }
        if (!recovered) {
            const std::string what = std::strerror(errno);
            ::close(listen_fd_);
            throw std::runtime_error("bind(" + socket_path_ +
                                     "): " + what);
        }
    }

    if (::listen(listen_fd_, 64) < 0) {
        const std::string what = std::strerror(errno);
        ::close(listen_fd_);
        throw std::runtime_error("listen(): " + what);
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) < 0) {
        const std::string what = std::strerror(errno);
        ::close(listen_fd_);
        throw std::runtime_error("pipe(): " + what);
    }
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
}

Server::~Server()
{
    requestStop(false);
    if (listen_fd_ >= 0) {
        // run() already joined everything if it ran; this is the
        // never-ran path.
        ::close(listen_fd_);
        ::unlink(socket_path_.c_str());
        listen_fd_ = -1;
    }
    if (wake_read_fd_ >= 0)
        ::close(wake_read_fd_);
    if (wake_write_fd_ >= 0)
        ::close(wake_write_fd_);
}

void
Server::requestStop(bool drain)
{
    if (!drain)
        drain_.store(false, std::memory_order_relaxed);
    stopping_.store(true, std::memory_order_relaxed);
    // Only async-signal-safe calls past this point.
    const char byte = 1;
    if (wake_write_fd_ >= 0)
        (void)!::write(wake_write_fd_, &byte, 1);
}

void
Server::run()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd fds[2];
        fds[0] = {listen_fd_, POLLIN, 0};
        fds[1] = {wake_read_fd_, POLLIN, 0};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0)
            break;  // woken by requestStop
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        const int accept_errno = errno;
        reapFinishedConnections();
        if (fd < 0) {
            // Out of fds, the listen socket stays readable: wait on
            // the wake pipe alone instead of spinning a core.
            if (accept_errno == EMFILE || accept_errno == ENFILE) {
                pollfd wake = {wake_read_fd_, POLLIN, 0};
                ::poll(&wake, 1, kAcceptBackoffMs);
            }
            continue;
        }
        if (fault::shouldFail(fault::Site::SocketAccept)) {
            // Injected accept failure: this client's connection is
            // dropped (it retries); the accept loop itself lives on.
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lock(connections_mutex_);
        auto connection = std::make_unique<Connection>();
        connection->fd = fd;
        Connection* raw = connection.get();
        connection->thread =
            std::thread([this, raw] { connectionLoop(raw); });
        connections_.push_back(std::move(connection));
    }

    // Shutdown. Stop admitting, then settle the queue: with drain the
    // clients blocked in `submit`/`wait` replies get them now.
    ::close(listen_fd_);
    listen_fd_ = -1;
    queue_->shutdown(drain_.load(std::memory_order_relaxed));

    // Unblock connection threads still parked in read(). With drain,
    // only the read side closes: a thread just woken from its job's
    // completion can still flush the reply, then sees EOF and exits.
    {
        const bool drain = drain_.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto& connection : connections_)
            if (connection->fd >= 0)
                ::shutdown(connection->fd,
                           drain ? SHUT_RD : SHUT_RDWR);
    }
    for (auto& connection : connections_) {
        if (connection->thread.joinable())
            connection->thread.join();
        if (connection->fd >= 0)
            ::close(connection->fd);
    }
    connections_.clear();
    ::unlink(socket_path_.c_str());
}

void
Server::reapFinishedConnections()
{
    // Collect under the lock, join outside it: a finished connection's
    // thread is past its last touch of shared state and exits
    // immediately, but join() still blocks for that instant.
    std::vector<std::unique_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        const auto alive_end = std::stable_partition(
            connections_.begin(), connections_.end(),
            [](const std::unique_ptr<Connection>& connection) {
                return !connection->done.load(
                    std::memory_order_acquire);
            });
        for (auto it = alive_end; it != connections_.end(); ++it)
            finished.push_back(std::move(*it));
        connections_.erase(alive_end, connections_.end());
    }
    for (auto& connection : finished)
        if (connection->thread.joinable())
            connection->thread.join();
}

void
Server::connectionLoop(Connection* connection)
{
    serveConnection(connection->fd);
    // Close under the mutex and mark the fd gone so run()'s shutdown
    // pass can't ::shutdown()/close() it a second time; `done` makes
    // the entry reapable by the accept loop.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (connection->fd >= 0) {
        ::close(connection->fd);
        connection->fd = -1;
    }
    connection->done.store(true, std::memory_order_release);
}

void
Server::serveConnection(int fd)
{
    std::string buffer;
    char chunk[4096];
    while (true) {
        const std::size_t newline_at = buffer.find('\n');
        if (newline_at != std::string::npos) {
            std::string line = buffer.substr(0, newline_at);
            buffer.erase(0, newline_at + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            bool shutdown_requested = false;
            bool shutdown_drain = true;
            const std::string reply = handleLine(
                line, &shutdown_requested, &shutdown_drain);
            // An injected write fault is EPIPE: the reply is lost and
            // the connection closes, exactly like a vanished client.
            const bool wrote =
                !fault::shouldFail(fault::Site::SocketWrite) &&
                writeAll(fd, reply + "\n");
            if (shutdown_requested) {
                requestStop(shutdown_drain);
                return;
            }
            if (!wrote)
                return;
            continue;
        }
        // An injected read fault is an EIO/ECONNRESET mid-request:
        // the connection is torn down, the daemon keeps serving.
        if (fault::shouldFail(fault::Site::SocketRead))
            return;
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        buffer.append(chunk, static_cast<std::size_t>(n));
        if (buffer.size() > kMaxRequestLineBytes &&
            buffer.find('\n') == std::string::npos) {
            writeAll(fd,
                     errorResponse(
                         "bad_request",
                         "request line exceeds " +
                             std::to_string(kMaxRequestLineBytes) +
                             " bytes") +
                         "\n");
            return;
        }
    }
}

std::string
Server::handleLine(const std::string& line, bool* shutdown_requested,
                   bool* shutdown_drain)
{
    JsonValue request;
    try {
        request = parseJson(line);
        if (!request.isObject())
            throw std::invalid_argument("request must be an object");
        const std::string cmd = request.getString("cmd", "");
        if (cmd == "submit")
            return handleSubmit(request);
        if (cmd == "poll")
            return handlePoll(request);
        if (cmd == "cancel")
            return handleCancel(request);
        if (cmd == "stats")
            return handleStats();
        if (cmd == "version")
            return std::string("{\"schema\": ") +
                   json::quote(kServeSchema) +
                   ", \"ok\": true, \"version\": " + versionJson() +
                   "}";
        if (cmd == "shutdown") {
            const bool drain = request.getBool("drain", true);
            *shutdown_requested = true;
            *shutdown_drain = drain;
            return std::string("{\"schema\": ") +
                   json::quote(kServeSchema) +
                   ", \"ok\": true, \"stopping\": true, \"drain\": " +
                   (drain ? "true" : "false") + "}";
        }
        throw std::invalid_argument("unknown cmd '" + cmd + "'");
    } catch (const std::invalid_argument& e) {
        return errorResponse("bad_request", e.what());
    } catch (const std::exception& e) {
        return errorResponse("bad_request", e.what());
    }
}

std::string
Server::handleSubmit(const JsonValue& request)
{
    const RunSpec spec = parseRunSpec(request);
    const bool wait = request.getBool("wait", true);
    const JobQueue::Submitted submitted = queue_->submit(spec);
    if (!submitted.accepted)
        return errorResponse(submitted.error, submitted.message);
    if (!wait) {
        std::string out = "{\"schema\": ";
        out += json::quote(kServeSchema);
        out += ", \"ok\": true, \"id\": " + json::num(submitted.id);
        out += ", \"state\": \"queued\", \"deduped\": ";
        out += submitted.deduped ? "true" : "false";
        out += "}";
        return out;
    }
    const auto result = queue_->wait(submitted.id);
    if (!result)
        return errorResponse("unknown_id",
                             "job expired before its reply");
    return jobReply(*result);
}

std::string
Server::handlePoll(const JsonValue& request)
{
    const auto result = queue_->poll(requireId(request));
    if (!result)
        return errorResponse("unknown_id", "no such job");
    return jobReply(*result);
}

std::string
Server::handleCancel(const JsonValue& request)
{
    const std::uint64_t id = requireId(request);
    if (!queue_->poll(id))
        return errorResponse("unknown_id", "no such job");
    const bool cancelled = queue_->cancel(id);
    std::string out = "{\"schema\": ";
    out += json::quote(kServeSchema);
    out += ", \"ok\": true, \"id\": " + json::num(id);
    out += ", \"cancelled\": ";
    out += cancelled ? "true" : "false";
    out += "}";
    return out;
}

std::string
Server::handleStats()
{
    const JobQueue::Counters counters = queue_->counters();
    std::string out = "{\"schema\": ";
    out += json::quote(kServeSchema);
    out += ", \"ok\": true, \"queue\": {";
    out += "\"submitted\": " + json::num(counters.submitted);
    out += ", \"deduped\": " + json::num(counters.deduped);
    out += ", \"coalesced\": " + json::num(counters.coalesced);
    out += ", \"rejected\": " + json::num(counters.rejected);
    out += ", \"done\": " + json::num(counters.done);
    out += ", \"cancelled\": " + json::num(counters.cancelled);
    out += ", \"timed_out\": " + json::num(counters.timed_out);
    out += ", \"failed\": " + json::num(counters.failed);
    out += ", \"depth\": " +
           json::num(static_cast<std::uint64_t>(counters.depth));
    out += ", \"running\": " +
           json::num(static_cast<std::uint64_t>(counters.running));
    out += "}";
    out += ", \"isa\": " +
           json::quote(kernels::isaName(kernels::resolvedIsa()));
    out += ", \"workers\": {";
    out += "\"queue\": " + json::num(static_cast<std::uint64_t>(
                               std::max(1, queue_config_.workers)));
    out += ", \"engine_threads\": " +
           json::num(static_cast<std::uint64_t>(
               resolveThreads(queue_config_.engine_threads)));
    out += "}";
    if (cache_ != nullptr)
        out += ", \"cache\": " + cacheStatsJson(cache_->stats());
    out += "}";
    return out;
}

std::string
Server::jobReply(const JobQueue::Result& result) const
{
    std::string out = "{\"schema\": ";
    out += json::quote(kServeSchema);
    out += ", \"ok\": true, \"id\": " + json::num(result.id);
    out += ", \"state\": ";
    out += json::quote(JobQueue::stateName(result.state));
    out += ", \"deduped\": ";
    out += result.deduped ? "true" : "false";
    out += ", \"coalesced_with\": " +
           json::num(static_cast<std::uint64_t>(
               result.coalesced_with < 0 ? 0 : result.coalesced_with));
    if (!result.error.empty()) {
        out += ", \"message\": " + json::quote(result.error);
        // A failed job's exception text is first-class on the wire
        // (loas-serve/3): "error" on an ok:true reply is the job's
        // failure reason, distinct from the error *code* that only
        // ok:false replies carry.
        if (result.state == JobQueue::State::Failed)
            out += ", \"error\": " + json::quote(result.error);
    }
    out += ", \"stats\": {";
    out += "\"queue_ms\": " + json::num(result.queue_ms);
    out += ", \"run_ms\": " + json::num(result.run_ms);
    out += ", \"compile_ms\": " + json::num(result.compile_ms);
    out += ", \"sim_ms\": " + json::num(result.sim_ms);
    out += ", \"synth_ms\": " + json::num(result.synth_ms);
    out += ", \"synth_layers\": " + json::num(result.synth_layers);
    out += ", \"inferences_per_s\": " +
           json::num(result.inferences_per_s);
    out += ", \"cache\": " + cacheStatsJson(result.cache);
    out += "}";
    if (result.report_json)
        out += ", \"report\": " + json::quote(*result.report_json);
    out += "}";
    return out;
}

} // namespace serve
} // namespace loas
