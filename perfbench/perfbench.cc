/**
 * @file
 * The repository benchmark. It drives the simulator from outside,
 * through public functions only: one-shot runs through SimEngine::run
 * plus json::toJson, served requests through serve::ServeClient against
 * a daemon process. README.md beside this file documents the
 * workloads, the metrics and the trace file; run.py builds this
 * program and is the entry point:
 *
 *   python3 perfbench/run.py --workload resnet19-loas --seed 1 \
 *       --seconds 20 --trace 0
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics (the end-to-end metrics, or with --trace 1 the per-layer
 * ones). Every report the run produces is checked byte for byte, by
 * SHA-256, against a stored digest or, for a seed with none stored, a
 * 1-thread run of the same request.
 */

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hh"
#include "api/registry.hh"
#include "api/sim_engine.hh"
#include "api/sweep.hh"
#include "core/kernel_dispatch.hh"
#include "serve/client.hh"
#include "serve/json_parse.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

#include "sha256.hh"
#include "spans.hh"

namespace perfbench {
namespace {

using namespace loas;
using Clock = std::chrono::steady_clock;

/** Engine threads of table2-warm, whose 15 cells keep them busy. Two
 *  of the host's four vCPUs: at four, steal from other guests made cold
 *  Table II medians swing 2.5-3.7 s between runs; at two they held
 *  within 5%. */
constexpr int kEngineThreads = 2;

/** Engine threads of the serve-mixed daemon. Half its requests are one
 *  cell, where a second thread only drives the intra-layer fork-join
 *  path; over six interleaved runs, 2 threads gave peak RSS and set-up
 *  spreads of 13% and 39%, 1 thread 5% and 10%. */
constexpr int kServeEngineThreads = 1;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

/** `loas_cli run`'s default seed, and the held-out seed; both have
 *  stored digests (references.json). */
constexpr std::uint64_t kDefaultSeed = 101;
constexpr std::uint64_t kHeldOutSeed = 202;

/** Fresh-seed serve requests per client with stored digests. */
constexpr std::size_t kFreshRecorded = 64;

/** serve-mixed daemon cache budget: the hot set (about 6 MiB) plus
 *  about ten passes of fresh-seed artifacts (about 1 MiB a pass), so
 *  resident memory plateaus early instead of growing with the number
 *  of passes a run completes. */
constexpr std::uint64_t kServeCacheBytes = 16ull << 20;

/** serve-mixed's peak_rss_mb is the daemon's peak over set-up and this
 *  many passes of the stream: the same work in every run. The daemon's
 *  resident memory still grows by 1-4 MiB a second at the end of a
 *  20 s run, so its peak over the whole run measured how many passes
 *  the run completed (103-143 MiB between runs). */
constexpr std::size_t kServeRssPasses = 12;

/** Seeds go over the wire as JSON numbers, exact below 2^53. */
constexpr std::uint64_t kMaxSeed = 1ull << 40;

const char* const kDesigns[] = {"sparten", "gospa", "gamma", "loas",
                                "loas-ft"};
constexpr int kResnet19Layers = 19;

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef>&
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},           {"wall_s", "s"},
        {"cpu_s", "s"},             {"peak_rss_mb", "MiB"},
        {"latency_ms.p50", "ms"},   {"latency_ms.p90", "ms"},
        {"requests_per_s", "1/s"},  {"ok_frac", "ratio"}};
    return defs;
}

const std::vector<MetricDef>&
perLayerDefs()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"workload.synth_ms", "ms"},
            {"workload.synth_layers", "count"},
            {"accel.prepare_ms", "ms"},
            {"workload.cache.misses", "count"},
            {"workload.cache.disk_writes", "count"},
            {"workload.cache.disk_load_ms", "ms"},
            {"workload.cache.disk_hits", "count"},
            {"workload.cache.disk_rejects", "count"},
            {"workload.cache.hits", "count"},
            {"workload.cache.hit_ratio", "ratio"},
            {"workload.cache.resident_mb", "MiB"},
            {"accel.execute_ms", "ms"}};
        for (const char* design : kDesigns)
            d.push_back({std::string("accel.execute_ms.") + design, "ms"});
        for (const char* design : kDesigns)
            d.push_back({std::string("accel.ns_per_sop.") + design, "ns/op"});
        for (int l = 1; l <= kResnet19Layers; ++l) {
            char name[32];
            std::snprintf(name, sizeof(name), "accel.execute_ms.L%02d", l);
            d.push_back({name, "ms"});
        }
        d.insert(d.end(), {{"energy.evaluate_ms", "ms"},
                           {"api.render_ms", "ms"},
                           {"serve.queue_ms.p50", "ms"},
                           {"serve.run_ms.p50", "ms"},
                           {"serve.overhead_ms.p50", "ms"},
                           {"serve.deduped", "count"},
                           {"serve.coalesced", "count"},
                           {"serve.rejected", "count"},
                           {"trace.coverage", "ratio"},
                           {"trace.overhead_frac", "ratio"}});
        return d;
    }();
    return defs;
}

using Values = std::map<std::string, double>;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    int setups = kSetups;
    std::string refs_path;
    std::string out_dir = ".bench_out";
    std::string spec_path;         // --selftest: BENCHMARK.json
    bool selftest = false;
    std::string record_refs_path;  // --record-refs: write digests
    std::string daemon_socket;     // --daemon: serve-mixed's daemon
    int ready_fd = -1;             // --ready-fd: the daemon's ready pipe
};

/** Outcome of one benchmark run. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Values values;  // every metric either mode can report

    void record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

/** Linearly interpolated quantile (q in [0, 1]); 0 for no samples. */
double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

std::vector<std::string>
split(const std::string& list, char sep)
{
    std::vector<std::string> out;
    std::stringstream stream(list);
    std::string item;
    while (std::getline(stream, item, sep))
        out.push_back(item);
    return out;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------
// Reference digests
// ---------------------------------------------------------------------

/** Identity of one distinct request: its accelerator list, network
 *  list and seed, as given on the `run`/`submit` surface. */
std::string
requestKey(const std::string& accels, const std::string& networks,
           std::uint64_t seed)
{
    return "accel=" + accels + " network=" + networks +
           " seed=" + std::to_string(seed);
}

/** The engine request `loas_cli run` / a daemon submit would make. */
SimRequest
simRequest(const std::string& accels, const std::string& networks,
           std::uint64_t seed, int threads)
{
    serve::RunSpec spec;
    spec.accels = split(accels, ',');
    spec.networks = split(networks, ';');
    spec.seed = seed;
    SimRequest request = serve::toSimRequest(spec);
    request.threads = threads;
    return request;
}

/** Digest of the report of a serial run with a private, memory-only
 *  cache: the independent path every measured report must equal. */
std::string
serialDigest(SimRequest request)
{
    request.threads = 1;
    request.compiled_cache = nullptr;
    request.cache_dir.clear();
    return sha256Hex(json::toJson(SimEngine().run(request)));
}

/** Expected report digest per request key. */
class References
{
  public:
    explicit References(const std::string& path)
    {
        if (path.empty())
            return;
        const serve::JsonValue doc = serve::parseJson(readFile(path));
        for (const auto& [key, value] : doc.object)
            digests_[key] = value.string;
    }

    const std::string* find(const std::string& key) const
    {
        const auto it = digests_.find(key);
        return it == digests_.end() ? nullptr : &it->second;
    }

    /** The stored digest of `key`, else that of a 1-thread run. */
    const std::string& expect(const std::string& key,
                              const SimRequest& request)
    {
        auto it = digests_.find(key);
        if (it == digests_.end())
            it = digests_.emplace(key, serialDigest(request)).first;
        return it->second;
    }

  private:
    std::map<std::string, std::string> digests_;
};

// ---------------------------------------------------------------------
// Run workloads: one SimEngine pass per request
// ---------------------------------------------------------------------

struct RunWorkload
{
    const char* name;
    std::string accels;
    std::string networks;
    /** Engine threads of a pass. */
    int threads;
    /** Passes read a disk level that set-up fills with a cold pass. */
    bool disk_level;
};

// resnet19-loas: one LoAS cell where execute is 82% of the pass. It
// runs serially: with one cell, a second engine thread only drives the
// intra-layer fork-join path, which turns host steal into 4x as much
// wall time (pass medians 1.1-2.1 s between runs at 5-21% steal).
// table2-warm: `loas_cli run`'s default matrix over a filled disk
// level, the only workload reading artifacts back from disk.
const RunWorkload kRunWorkloads[] = {
    {"resnet19-loas", "loas", "resnet19", 1, false},
    {"table2-warm", serve::kDefaultAccels, "all", kEngineThreads, true},
};

struct PassTimes
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::string digest;  // of the report; empty when the pass threw
};

/** One pass: SimEngine::run + json::toJson. */
PassTimes
timedPass(const SimRequest& request)
{
    PassTimes pass;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    try {
        const std::string report = json::toJson(SimEngine().run(request));
        pass.wall_s = secondsSince(t0);
        pass.cpu_s = processCpuSeconds() - cpu0;
        pass.digest = sha256Hex(report);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: pass failed: %s\n", e.what());
    }
    return pass;
}

/** Record one checked report; a mismatch is a failure. */
bool
check(Result& result, const std::string& digest, const std::string& expected)
{
    const bool ok = !digest.empty() && digest == expected;
    if (!digest.empty() && !ok)
        std::fprintf(stderr, "perfbench: report differs from reference\n");
    result.record(ok);
    return ok;
}

void
putEndToEnd(Result& result, double setup_s, double peak_rss_mb,
            const std::vector<double>& walls, const std::vector<double>& cpus,
            const std::vector<double>& latencies_ms, double stream_s,
            std::uint64_t completed)
{
    Values& v = result.values;
    v["setup_s"] = setup_s;
    v["wall_s"] = median(walls);
    v["cpu_s"] = median(cpus);
    v["peak_rss_mb"] = peak_rss_mb;
    v["latency_ms.p50"] = quantile(latencies_ms, 0.5);
    v["latency_ms.p90"] = quantile(latencies_ms, 0.9);
    v["requests_per_s"] =
        stream_s > 0.0 ? static_cast<double>(completed) / stream_s : 0.0;
    v["ok_frac"] = result.attempted == 0
                       ? 0.0
                       : static_cast<double>(result.attempted -
                                             result.failed) /
                             static_cast<double>(result.attempted);
}

/** Each per-layer metric's median over passes; a pass that does not
 *  exercise a metric counts as 0. */
void
putPerLayerMedians(const std::vector<Values>& passes, Values& out)
{
    for (const MetricDef& def : perLayerDefs()) {
        std::vector<double> samples;
        for (const Values& pass : passes) {
            const auto it = pass.find(def.name);
            samples.push_back(it == pass.end() ? 0.0 : it->second);
        }
        out[def.name] = median(samples);
    }
}

struct SetUp
{
    double seconds = 0.0;
    double peak_rss_mb = 0.0;
    std::string digest;  // of the set-up pass's report
};

/**
 * One set-up of a run workload, in a fresh child process as a user's
 * `loas_cli run` is: build the request, then fill a fresh disk level
 * with a cold pass, or run one warm-up pass. The child's peak RSS is
 * that of a one-pass process; this process's own high-water mark grows
 * with allocator fragmentation over many passes (441-528 MiB over five
 * table2-warm runs). Call with no other thread running.
 */
SetUp
setUpRunWorkload(const RunWorkload& w, const Options& o,
                 const std::string& disk_dir)
{
    std::filesystem::remove_all(disk_dir);
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe() failed");
    std::fflush(nullptr);
    const pid_t parent = ::getpid();
    const auto t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork() failed");
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // dies with the benchmark
        if (::getppid() != parent)
            std::_Exit(1);
        ::close(fds[0]);
        SimRequest request =
            simRequest(w.accels, w.networks, o.seed, w.threads);
        request.cache_dir = w.disk_level ? disk_dir : "";
        const std::string digest = timedPass(request).digest;
        const bool wrote =
            ::write(fds[1], digest.data(), digest.size()) ==
            static_cast<ssize_t>(digest.size());
        std::fflush(nullptr);
        std::_Exit(wrote ? 0 : 1);
    }
    ::close(fds[1]);
    SetUp setup;
    char buf[128];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) > 0;)
        setup.digest.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    rusage ru{};
    if (::wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        setup.digest.clear();
    setup.seconds = secondsSince(t0);
    setup.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return setup;
}

Result
measureRunWorkload(const RunWorkload& w, const Options& o,
                   References& refs)
{
    const std::string disk_dir = o.out_dir + "/" + w.name + ".disk";
    std::vector<SetUp> setups;
    for (int s = 0; s < o.setups; ++s)
        setups.push_back(setUpRunWorkload(w, o, disk_dir));

    SimRequest request = simRequest(w.accels, w.networks, o.seed, w.threads);
    const std::string expected =
        refs.expect(requestKey(w.accels, w.networks, o.seed), request);
    request.cache_dir = w.disk_level ? disk_dir : "";

    Result result;
    std::vector<double> setup_s, rss_mb;
    for (const SetUp& setup : setups) {
        check(result, setup.digest, expected);
        setup_s.push_back(setup.seconds);
        rss_mb.push_back(setup.peak_rss_mb);
    }

    std::vector<double> walls, cpus;
    const auto start = Clock::now();
    std::uint64_t completed = 0;
    do {
        const PassTimes pass = timedPass(request);
        if (check(result, pass.digest, expected)) {
            ++completed;
            walls.push_back(pass.wall_s);
            cpus.push_back(pass.cpu_s);
        }
    } while (secondsSince(start) < o.seconds);
    const double stream_s = secondsSince(start);

    std::vector<double> latencies_ms;
    for (const double wall : walls)
        latencies_ms.push_back(wall * 1000.0);
    putEndToEnd(result, median(setup_s), median(rss_mb), walls, cpus,
                latencies_ms, stream_s, completed);
    std::filesystem::remove_all(disk_dir);
    return result;
}

/** One traced serial replay of a run workload's pass. */
struct Replay
{
    Values values;
    std::string digest;
};

/**
 * Replay one pass serially through the layer functions, in engine
 * order: synthesize each (network, ft variant), compile (or load) each
 * cell's layers through a fresh private cache, execute each layer on
 * one instance per cell, evaluate energy per cell, render the report.
 * Each call gets a span; the report must match the engine's bytes.
 */
Replay
replayPass(const RunWorkload& w, std::uint64_t seed,
           const std::string& disk_dir, SpanRecorder& rec, int pass)
{
    const auto& registry = AcceleratorRegistry::instance();
    const std::vector<NetworkSpec> nets =
        expandNetworkGrids(split(w.networks, ';'));
    Replay replay;
    Values& v = replay.values;
    std::vector<int> synth, prepare, lookup_disk, execute, energy;
    static const std::string resnet19 = tables::resnet19().name;

    const int root = rec.begin("pass", pass);

    struct Cell
    {
        std::string spec_string;
        std::string design;
        bool ft = false;
        const NetworkSpec* net = nullptr;
        std::size_t net_index = 0;
        std::unique_ptr<Accelerator> instance;
        std::vector<std::shared_ptr<const CompiledLayer>> compiled;
    };
    std::vector<Cell> cells;  // accel-major, like SimReport::runs
    bool want_plain = false, want_ft = false;
    for (const std::string& spec_string : split(w.accels, ',')) {
        const AccelSpec spec = parseAccelSpec(spec_string);
        const bool ft = registry.entry(spec.key).ft_workload;
        (ft ? want_ft : want_plain) = true;
        for (std::size_t n = 0; n < nets.size(); ++n)
            cells.push_back({spec_string, spec.key, ft, &nets[n], n,
                             registry.make(spec), {}});
    }

    // 1. Workload synthesis, once per (network, ft variant).
    std::vector<std::vector<LayerData>> plain(nets.size()), ft(nets.size());
    for (std::size_t n = 0; n < nets.size(); ++n)
        for (const bool variant : {false, true}) {
            if (!(variant ? want_ft : want_plain))
                continue;
            const int s = rec.begin("workload.generateNetwork", pass);
            auto& layers = variant ? ft[n] : plain[n];
            layers = generateNetwork(nets[n], seed, variant, 1);
            rec.end(s, "\"network\": " + json::quote(nets[n].name) +
                           ", \"ft\": " + (variant ? "true" : "false") +
                           ", \"layers\": " + std::to_string(layers.size()));
            synth.push_back(s);
            v["workload.synth_layers"] += static_cast<double>(layers.size());
        }

    // 2. Compile or load every layer key through a fresh private cache.
    CompiledCache cache;
    cache.setDiskDir(disk_dir);
    CompiledCache::Stats stats;
    for (Cell& cell : cells) {
        const auto& layers =
            cell.ft ? ft[cell.net_index] : plain[cell.net_index];
        const std::string family = cell.instance->formatFamily();
        for (std::size_t l = 0; l < layers.size(); ++l) {
            CompiledCache::Stats call;
            const int s = rec.begin("workload.cache.getOrCompile", pass);
            cell.compiled.push_back(cache.getOrCompile(
                compiledLayerKey(cell.net->name, l, cell.ft, family,
                                 layers[l].spec.t, seed, 1),
                [&] {
                    const int p = rec.begin("accel.prepare", pass);
                    CompiledLayer compiled = cell.instance->prepare(layers[l]);
                    rec.end(p, "\"design\": " + json::quote(cell.design));
                    prepare.push_back(p);
                    return compiled;
                },
                &call));
            const char* outcome = call.disk_hits   ? "disk"
                                  : call.misses    ? "compile"
                                                   : "memory";
            rec.end(s, "\"network\": " + json::quote(cell.net->name) +
                           ", \"layer\": " + std::to_string(l + 1) +
                           ", \"family\": " + json::quote(family) +
                           ", \"outcome\": \"" + outcome + "\"");
            if (call.disk_hits != 0)
                lookup_disk.push_back(s);
            stats.hits += call.hits;
            stats.misses += call.misses;
            stats.disk_hits += call.disk_hits;
            stats.disk_writes += call.disk_writes;
            stats.disk_rejects += call.disk_rejects;
        }
    }

    // 3. Execute every layer in order, on one instance per cell.
    SimReport report;
    report.runs.resize(cells.size());
    std::map<std::string, double> design_ms, design_acc;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell& cell = cells[i];
        SimRun& run = report.runs[i];
        run.accel_spec = cell.spec_string;
        run.network = cell.net->name;
        run.result.accel = cell.instance->name();
        run.result.workload = cell.net->name;
        for (std::size_t l = 0; l < cell.compiled.size(); ++l) {
            const int s = rec.begin("accel.executeInput", pass);
            const RunResult r =
                cell.instance->executeInput(*cell.compiled[l], 0, 0);
            rec.end(s, "\"design\": " + json::quote(cell.design) +
                           ", \"network\": " + json::quote(cell.net->name) +
                           ", \"layer\": " + std::to_string(l + 1) +
                           ", \"total_cycles\": " + json::num(r.total_cycles) +
                           ", \"compute_cycles\": " +
                           json::num(r.compute_cycles) +
                           ", \"dram_cycles\": " + json::num(r.dram_cycles) +
                           ", \"acc_ops\": " + json::num(r.ops.acc_ops));
            execute.push_back(s);
            run.result += r;
            const double ms = rec.spans()[s].ms();
            design_ms[cell.design] += ms;
            design_acc[cell.design] += static_cast<double>(r.ops.acc_ops);
            if (cell.net->name == resnet19 && l < kResnet19Layers) {
                char name[32];
                std::snprintf(name, sizeof(name), "accel.execute_ms.L%02zu",
                              l + 1);
                v[name] += ms;
            }
        }
    }

    // 4. Energy per cell; 5. render the whole report.
    const EnergyModel energy_model;
    for (SimRun& run : report.runs) {
        const int s = rec.begin("energy.evaluate", pass);
        run.energy = energy_model.evaluate(run.result);
        rec.end(s);
        energy.push_back(s);
    }
    const int render = rec.begin("api.toJson", pass);
    const std::string bytes = json::toJson(report);
    rec.end(render, "\"bytes\": " + std::to_string(bytes.size()));
    rec.end(root);
    replay.digest = sha256Hex(bytes);

    const std::vector<double> self = rec.selfMs();
    const auto sum = [&](const std::vector<int>& spans) {
        double total = 0.0;
        for (const int s : spans)
            total += self[s];
        return total;
    };
    v["workload.synth_ms"] = sum(synth);
    v["accel.prepare_ms"] = sum(prepare);
    v["workload.cache.disk_load_ms"] = sum(lookup_disk);
    v["accel.execute_ms"] = sum(execute);
    v["energy.evaluate_ms"] = sum(energy);
    v["api.render_ms"] = self[render];
    v["trace.coverage"] = 1.0 - self[root] / rec.spans()[root].ms();
    for (const auto& [design, ms] : design_ms) {
        v["accel.execute_ms." + design] = ms;
        if (design_acc[design] > 0.0)
            v["accel.ns_per_sop." + design] =
                ms * 1e6 / design_acc[design];
    }
    const double lookups =
        static_cast<double>(stats.hits + stats.misses + stats.disk_hits);
    v["workload.cache.hits"] = static_cast<double>(stats.hits);
    v["workload.cache.misses"] = static_cast<double>(stats.misses);
    v["workload.cache.disk_hits"] = static_cast<double>(stats.disk_hits);
    v["workload.cache.disk_writes"] = static_cast<double>(stats.disk_writes);
    v["workload.cache.disk_rejects"] =
        static_cast<double>(stats.disk_rejects);
    v["workload.cache.hit_ratio"] =
        lookups > 0.0
            ? static_cast<double>(stats.hits + stats.disk_hits) / lookups
            : 0.0;
    v["workload.cache.resident_mb"] =
        static_cast<double>(cache.stats().bytes) / (1024.0 * 1024.0);
    return replay;
}

/**
 * Traced run of a run workload: after one set-up, alternate an
 * untraced 1-thread engine pass with a traced serial replay until the
 * time is up. Per-layer values are medians over the replays.
 */
Result
traceRunWorkload(const RunWorkload& w, const Options& o, References& refs,
                 SpanRecorder& rec)
{
    const std::string disk_dir = o.out_dir + "/" + w.name + ".disk";
    const SetUp setup = setUpRunWorkload(w, o, disk_dir);
    SimRequest serial = simRequest(w.accels, w.networks, o.seed, 1);
    const std::string expected =
        refs.expect(requestKey(w.accels, w.networks, o.seed), serial);
    serial.cache_dir = w.disk_level ? disk_dir : "";

    Result result;
    check(result, setup.digest, expected);

    std::vector<Values> replays;
    std::vector<double> untraced_s, replay_s;
    const auto start = Clock::now();
    do {
        const PassTimes pass = timedPass(serial);
        check(result, pass.digest, expected);
        const int pass_id = static_cast<int>(replays.size());
        try {
            const double t0 = rec.nowUs();
            Replay replay = replayPass(
                w, o.seed, w.disk_level ? disk_dir : "", rec, pass_id);
            check(result, replay.digest, expected);
            untraced_s.push_back(pass.wall_s);
            replay_s.push_back((rec.nowUs() - t0) / 1e6);
            replays.push_back(std::move(replay.values));
        } catch (const std::exception& e) {
            result.record(false);
            std::fprintf(stderr, "perfbench: replay failed: %s\n", e.what());
        }
    } while (secondsSince(start) < o.seconds);

    putPerLayerMedians(replays, result.values);
    const double base = median(untraced_s);
    result.values["trace.overhead_frac"] =
        base > 0.0 ? median(replay_s) / base - 1.0 : 0.0;
    std::filesystem::remove_all(disk_dir);
    return result;
}

// ---------------------------------------------------------------------
// serve-mixed: two closed-loop clients against one daemon
// ---------------------------------------------------------------------

struct ServeRequest
{
    const char* accels;
    const char* networks;
    bool fresh;  // a seed not seen before: synthesizes and compiles
};

/** How long after client 1 client 2 starts a pass: ample for the
 *  daemon to queue client 1's first request. */
constexpr std::chrono::milliseconds kClientStagger{5};

/** Each client's cycle: every 4th request takes a fresh seed. The two
 *  clients use disjoint networks, so no request is ever deduped or
 *  coalesced (both depend on arrival timing). */
const std::vector<ServeRequest> kSchedules[2] = {
    {{"loas", "alexnet-l4", false},
     {"sparten,loas,loas-ft", "alexnet-l4", false},
     {"sparten,gospa,gamma,loas,loas-ft", "alexnet-l4", false},
     {"loas", "alexnet-l4", true},
     {"loas", "alexnet", false},
     {"gamma,loas", "alexnet-l4", false},
     {"loas-ft", "alexnet-l4", false},
     {"sparten,loas", "alexnet-l4", true}},
    {{"loas", "vgg16-l8", false},
     {"loas", "resnet19-l19", false},
     {"sparten,gospa,gamma,loas,loas-ft", "vgg16-l8", false},
     {"loas", "resnet19-l19", true},
     {"sparten,gospa,gamma,loas,loas-ft", "resnet19-l19", false},
     {"gamma,loas", "vgg16-l8", false},
     {"loas,loas-ft", "resnet19-l19", false},
     {"loas", "vgg16-l8", true}},
};

/** Seed of client `c`'s `j`-th fresh request: distinct per (c, j). */
std::uint64_t
freshSeed(std::uint64_t seed, int c, std::size_t j)
{
    return seed + 7919 * (2 * j + static_cast<std::size_t>(c) + 1);
}

/** The fresh-seed request templates of client `c`, in cycle order. */
std::vector<ServeRequest>
freshTemplates(int c)
{
    std::vector<ServeRequest> out;
    for (const ServeRequest& r : kSchedules[c])
        if (r.fresh)
            out.push_back(r);
    return out;
}

/** Layers the engine synthesizes for a request: one set per needed
 *  (network, ft variant). */
double
synthLayers(const SimRequest& request)
{
    const auto& registry = AcceleratorRegistry::instance();
    bool plain = false, ft = false;
    for (const std::string& accel : request.accels)
        (registry.entry(parseAccelSpec(accel).key).ft_workload ? ft : plain) =
            true;
    double layers = 0.0;
    for (const NetworkSpec& net : request.networks)
        layers += static_cast<double>(net.layers.size()) * (plain + ft);
    return layers;
}

/**
 * --daemon mode: serve on `socket_path` as `loas_cli serve` does, with
 * one queue worker, one engine thread and a memory-only cache, until a
 * `shutdown` command. One byte on `ready_fd` says the socket listens.
 */
int
runDaemon(const std::string& socket_path, int ready_fd)
{
    CompiledCache cache;
    cache.setByteBudget(kServeCacheBytes);
    serve::Server::Config config;
    config.socket_path = socket_path;
    config.queue.workers = 1;
    config.queue.engine_threads = kServeEngineThreads;
    serve::Server server(config, &cache);
    const char ready = 1;
    const bool told = ::write(ready_fd, &ready, 1) == 1;
    ::close(ready_fd);
    if (!told)
        return 1;
    server.run();
    return 0;
}

/**
 * The serve-mixed daemon in a process of its own, as `loas_cli serve`
 * runs: this program re-executed in --daemon mode, so its memory and
 * CPU time are the daemon's alone, from a fresh address space. It dies
 * with this process, and is killed and reaped on destruction if still
 * up.
 */
class DaemonProcess
{
  public:
    explicit DaemonProcess(const std::string& socket_path)
        : socket_path_(socket_path)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2() failed");
        const std::string ready_fd = std::to_string(fds[1]);
        const char* const argv[] = {"loas_perfbench",    "--daemon",
                                    socket_path.c_str(), "--ready-fd",
                                    ready_fd.c_str(),    nullptr};
        const pid_t parent = ::getpid();
        std::fflush(nullptr);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                std::_Exit(1);
            ::fcntl(fds[1], F_SETFD, 0);  // keep the write end open
            ::execv("/proc/self/exe", const_cast<char* const*>(argv));
            std::_Exit(127);
        }
        ::close(fds[1]);
        char ready = 0;
        const bool up = pid_ > 0 && ::read(fds[0], &ready, 1) == 1 &&
                        ::clock_getcpuclockid(pid_, &cpu_clock_) == 0;
        ::close(fds[0]);
        if (!up) {
            kill();
            throw std::runtime_error("daemon did not start");
        }
    }

    ~DaemonProcess() { kill(); }

    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    /** CPU time (user + sys) the daemon has used so far. */
    double cpuSeconds() const
    {
        timespec ts{};
        if (::clock_gettime(cpu_clock_, &ts) != 0)
            throw std::runtime_error("cannot read the daemon's CPU clock");
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) / 1e9;
    }

    /** The daemon's peak RSS so far, in MiB (VmHWM). */
    double peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        for (std::string line; std::getline(in, line);)
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        throw std::runtime_error("cannot read the daemon's VmHWM");
    }

    /** Ask the daemon to drain and stop, and wait for it. Throws if it
     *  did not exit cleanly. */
    void stop()
    {
        serve::ServeClient(socket_path_).call("{\"cmd\": \"shutdown\"}");
        int status = 0;
        const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
        pid_ = -1;
        if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("daemon did not exit cleanly");
    }

  private:
    void kill()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        pid_ = -1;
    }

    std::string socket_path_;
    pid_t pid_ = -1;
    clockid_t cpu_clock_{};
};

/** One request as the client saw it. */
struct Reply
{
    double sent_us = 0.0;
    double recv_us = 0.0;
    bool ok = false;
    std::string key;
    std::string digest;
    bool checked = false;  // compared against a stored digest already
    SimRequest request;    // for a deferred 1-thread reference
    double queue_ms = 0.0, run_ms = 0.0, compile_ms = 0.0, sim_ms = 0.0;
    double hits = 0.0, misses = 0.0, disk_hits = 0.0, disk_writes = 0.0,
           disk_rejects = 0.0;
    double synth_layers = 0.0;

    double rtMs() const { return (recv_us - sent_us) / 1000.0; }
};

std::string
submitLine(const ServeRequest& r, std::uint64_t seed)
{
    return std::string("{\"cmd\": \"submit\", \"accel\": ") +
           json::quote(r.accels) + ", \"network\": " + json::quote(r.networks) +
           ", \"seed\": " + json::num(seed) + "}";
}

/** Send one request and check its reply; `refs` is read-only here. */
Reply
sendRequest(serve::ServeClient& client, const ServeRequest& r,
            std::uint64_t seed, const References& refs,
            const SpanRecorder& clock)
{
    Reply reply;
    reply.key = requestKey(r.accels, r.networks, seed);
    reply.request = simRequest(r.accels, r.networks, seed, 1);
    reply.synth_layers = synthLayers(reply.request);
    reply.sent_us = clock.nowUs();
    try {
        const std::string line = client.call(submitLine(r, seed));
        reply.recv_us = clock.nowUs();
        const serve::JsonValue doc = serve::parseJson(line);
        if (!doc.getBool("ok", false) ||
            doc.getString("state", "") != "done") {
            std::fprintf(stderr, "perfbench: request not done: %s\n",
                         line.substr(0, 200).c_str());
            return reply;
        }
        reply.digest = sha256Hex(doc.getString("report", ""));
        const serve::JsonValue* stats = doc.get("stats");
        const serve::JsonValue* cache = stats ? stats->get("cache") : nullptr;
        if (stats == nullptr || cache == nullptr)
            return reply;
        reply.queue_ms = stats->getNumber("queue_ms", 0.0);
        reply.run_ms = stats->getNumber("run_ms", 0.0);
        reply.compile_ms = stats->getNumber("compile_ms", 0.0);
        reply.sim_ms = stats->getNumber("sim_ms", 0.0);
        reply.hits = cache->getNumber("hits", 0.0);
        reply.misses = cache->getNumber("misses", 0.0);
        reply.disk_hits = cache->getNumber("disk_hits", 0.0);
        reply.disk_writes = cache->getNumber("disk_writes", 0.0);
        reply.disk_rejects = cache->getNumber("disk_rejects", 0.0);
        const std::string* expected = refs.find(reply.key);
        reply.checked = expected != nullptr;
        reply.ok = !reply.checked || *expected == reply.digest;
        if (!reply.ok)
            std::fprintf(stderr, "perfbench: served report differs: %s\n",
                         reply.key.c_str());
    } catch (const std::exception& e) {
        reply.recv_us = clock.nowUs();
        std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
    }
    return reply;
}

/** A running daemon and its two client connections. */
struct ServeSession
{
    std::unique_ptr<DaemonProcess> daemon;
    std::unique_ptr<serve::ServeClient> clients[2];

    /** Disconnect the clients, then stop the daemon. */
    void close()
    {
        for (auto& client : clients)
            client.reset();
        if (daemon)
            daemon->stop();
        daemon.reset();
    }
};

/** Set-up: start the daemon, connect both clients, warm every hot
 *  request once (its artifacts then stay in the daemon's memory). */
ServeSession
setUpServe(const Options& o, const std::string& socket_path,
           const References& refs, const SpanRecorder& clock,
           Result& result)
{
    ServeSession session;
    session.daemon = std::make_unique<DaemonProcess>(socket_path);
    for (auto& client : session.clients)
        client = std::make_unique<serve::ServeClient>(socket_path);
    for (int c = 0; c < 2; ++c)
        for (const ServeRequest& r : kSchedules[c])
            if (!r.fresh)
                result.record(
                    sendRequest(*session.clients[c], r, o.seed, refs, clock)
                        .ok);
    return session;
}

Result
measureServe(const Options& o, References& refs, SpanRecorder& rec)
{
    const std::string socket_path =
        o.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
    for (int c = 0; c < 2; ++c)
        for (const ServeRequest& r : kSchedules[c])
            if (!r.fresh)
                refs.expect(requestKey(r.accels, r.networks, o.seed),
                            simRequest(r.accels, r.networks, o.seed, 1));

    Result result;
    std::vector<double> setups;
    ServeSession session;
    for (int s = 0; s < o.setups; ++s) {
        session.close();
        const auto t0 = Clock::now();
        session = setUpServe(o, socket_path, refs, rec, result);
        setups.push_back(secondsSince(t0));
    }

    // Timed stream, in passes: each client runs its cycle once per
    // pass, closed loop (the next request goes out when the reply is
    // in), and the pass ends when both are done. The daemon's one
    // worker then alternates between the clients, and a request's
    // latency depends on which of the other client's requests it waits
    // behind. Client 2 starts a moment after client 1, so that pairing
    // is the same in every pass; left to a race, it flipped from pass
    // to pass and moved latency_ms.p50 by 16% between runs.
    std::vector<Reply> replies;
    std::vector<double> walls, cpus;
    std::vector<Values> per_pass;
    std::size_t fresh_next[2] = {0, 0};
    double daemon_rss_mb = 0.0;
    const auto start = Clock::now();
    do {
        const int pass = static_cast<int>(walls.size());
        std::vector<Reply> got[2];
        const double cpu0 =
            processCpuSeconds() + session.daemon->cpuSeconds();
        const double t0 = rec.nowUs();
        {
            std::atomic<bool> first_started{false};
            std::vector<std::thread> clients;
            for (int c = 0; c < 2; ++c)
                clients.emplace_back([&, c] {
                    if (c == 0) {
                        first_started = true;
                        first_started.notify_one();
                    } else {
                        first_started.wait(false);
                        std::this_thread::sleep_for(kClientStagger);
                    }
                    for (const ServeRequest& r : kSchedules[c]) {
                        const std::uint64_t seed =
                            r.fresh ? freshSeed(o.seed, c, fresh_next[c]++)
                                    : o.seed;
                        got[c].push_back(sendRequest(*session.clients[c], r,
                                                     seed, refs, rec));
                    }
                });
            for (auto& t : clients)
                t.join();
        }
        const double t1 = rec.nowUs();
        walls.push_back((t1 - t0) / 1e6);
        cpus.push_back(processCpuSeconds() + session.daemon->cpuSeconds() -
                       cpu0);
        if (walls.size() <= kServeRssPasses)
            daemon_rss_mb = session.daemon->peakRssMb();

        Span root;
        root.name = "pass";
        root.start_us = t0;
        root.end_us = t1;
        root.pass = pass;
        const int root_id = rec.add(root);
        Values v;
        for (int c = 0; c < 2; ++c)
            for (Reply& r : got[c]) {
                Span request{"serve.request", r.sent_us, r.recv_us, root_id,
                             pass, c + 1,
                             "\"request\": " + json::quote(r.key)};
                const int id = rec.add(request);
                const double queue_end = r.sent_us + r.queue_ms * 1000.0;
                rec.add({"serve.queue", r.sent_us, queue_end, id, pass, c + 1,
                         ""});
                rec.add({"serve.run", queue_end,
                         queue_end + r.run_ms * 1000.0, id, pass, c + 1,
                         "\"compile_ms\": " + json::num(r.compile_ms) +
                             ", \"sim_ms\": " + json::num(r.sim_ms)});
                v["workload.synth_ms"] +=
                    std::max(0.0, r.run_ms - r.compile_ms - r.sim_ms);
                v["workload.synth_layers"] += r.synth_layers;
                v["accel.prepare_ms"] += r.compile_ms;
                v["accel.execute_ms"] += r.sim_ms;
                v["workload.cache.hits"] += r.hits;
                v["workload.cache.misses"] += r.misses;
                v["workload.cache.disk_hits"] += r.disk_hits;
                v["workload.cache.disk_writes"] += r.disk_writes;
                v["workload.cache.disk_rejects"] += r.disk_rejects;
                replies.push_back(std::move(r));
            }
        const double lookups = v["workload.cache.hits"] +
                               v["workload.cache.misses"] +
                               v["workload.cache.disk_hits"];
        v["workload.cache.hit_ratio"] =
            lookups > 0.0 ? (v["workload.cache.hits"] +
                             v["workload.cache.disk_hits"]) /
                                lookups
                          : 0.0;
        per_pass.push_back(std::move(v));
    } while (secondsSince(start) < o.seconds);
    const double stream_s = secondsSince(start);

    // Daemon-side counters, then the daemon stops.
    const serve::JsonValue stats =
        session.clients[0]->callJson("{\"cmd\": \"stats\"}");
    session.close();

    // Replies with no stored digest: compare against a 1-thread run.
    std::vector<double> latencies_ms, queue_ms, run_ms, overhead_ms;
    double covered_ms = 0.0, rt_ms = 0.0;
    std::uint64_t completed = 0;
    for (Reply& r : replies) {
        if (r.ok && !r.checked) {
            r.ok = refs.expect(r.key, r.request) == r.digest;
            if (!r.ok)
                std::fprintf(stderr, "perfbench: served report differs: %s\n",
                             r.key.c_str());
        }
        result.record(r.ok);
        if (!r.ok)
            continue;
        ++completed;
        latencies_ms.push_back(r.rtMs());
        queue_ms.push_back(r.queue_ms);
        run_ms.push_back(r.run_ms);
        overhead_ms.push_back(r.rtMs() - r.queue_ms - r.run_ms);
        covered_ms += r.queue_ms + r.run_ms;
        rt_ms += r.rtMs();
    }
    putEndToEnd(result, median(setups), daemon_rss_mb, walls, cpus,
                latencies_ms, stream_s, completed);

    Values& v = result.values;
    putPerLayerMedians(per_pass, v);
    v["serve.queue_ms.p50"] = median(queue_ms);
    v["serve.run_ms.p50"] = median(run_ms);
    v["serve.overhead_ms.p50"] = median(overhead_ms);
    v["trace.coverage"] = rt_ms > 0.0 ? covered_ms / rt_ms : 0.0;
    const serve::JsonValue* queue = stats.get("queue");
    const serve::JsonValue* cache = stats.get("cache");
    if (queue != nullptr) {
        v["serve.deduped"] = queue->getNumber("deduped", 0.0);
        v["serve.coalesced"] = queue->getNumber("coalesced", 0.0);
        v["serve.rejected"] = queue->getNumber("rejected", 0.0);
    }
    if (cache != nullptr)
        v["workload.cache.resident_mb"] =
            cache->getNumber("bytes", 0.0) / (1024.0 * 1024.0);
    return result;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/** Run one workload; with --trace the recorder's spans are written
 *  out as a Chrome trace when the run ends. */
Result
runOnce(const Options& o)
{
    References refs(o.refs_path);
    SpanRecorder rec;
    Result result;
    if (o.workload == "serve-mixed") {
        result = measureServe(o, refs, rec);
    } else {
        const RunWorkload* w = nullptr;
        for (const RunWorkload& candidate : kRunWorkloads)
            if (o.workload == candidate.name)
                w = &candidate;
        if (w == nullptr)
            throw std::invalid_argument("unknown workload '" + o.workload +
                                        "'");
        result = o.trace ? traceRunWorkload(*w, o, refs, rec)
                         : measureRunWorkload(*w, o, refs);
    }
    if (o.trace)
        writeFile(o.out_dir + "/trace-" + o.workload + "-seed" +
                      std::to_string(o.seed) + ".json",
                  rec.chromeJson());
    return result;
}

/** The result line: correct, attempted, failed and the metrics. */
std::string
resultJson(const Result& result, bool trace)
{
    std::string metrics;
    for (const MetricDef& def : trace ? perLayerDefs() : endToEndDefs()) {
        const auto it = result.values.find(def.name);
        const double value = it == result.values.end() ? 0.0 : it->second;
        metrics += (metrics.empty() ? "" : ", ") + json::quote(def.name) +
                   ": {\"value\": " + json::num(value) +
                   ", \"unit\": " + json::quote(def.unit) + "}";
    }
    return std::string("{\"correct\": ") +
           (result.failed == 0 ? "true" : "false") +
           ", \"attempted\": " + json::num(result.attempted) +
           ", \"failed\": " + json::num(result.failed) + ", \"metrics\": {" +
           metrics + "}}";
}

/** Engine threads a workload runs with. */
int
engineThreads(const std::string& workload)
{
    for (const RunWorkload& w : kRunWorkloads)
        if (workload == w.name)
            return w.threads;
    return kServeEngineThreads;
}

/** Host CPU time counters from /proc/stat: {steal, total}. */
std::pair<double, double>
cpuTimes()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double field = 0.0, total = 0.0, steal = 0.0;
    in >> cpu;
    for (int i = 0; i < 8 && (in >> field); ++i) {
        total += field;  // user nice system idle iowait irq softirq steal
        if (i == 7)
            steal = field;
    }
    return {steal, total};
}

/** What the result was measured on, stored next to it. */
std::string
runRecord(const Options& o, std::pair<double, double> before,
          std::pair<double, double> after)
{
    const double total = after.second - before.second;
    const double steal =
        total > 0.0 ? (after.first - before.first) / total : 0.0;
    const char* isa_env = std::getenv("LOAS_ISA");
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#else
    const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
    return std::string("{\"workload\": ") + json::quote(o.workload) +
           ", \"seed\": " + json::num(o.seed) +
           ", \"seconds\": " + json::num(o.seconds) +
           ", \"trace\": " + (o.trace ? "true" : "false") +
           ", \"isa\": " +
           json::quote(kernels::isaName(kernels::resolvedIsa())) +
           ", \"loas_isa_env\": " +
           (isa_env ? json::quote(isa_env) : std::string("null")) +
           ", \"nproc\": " +
           json::num(static_cast<std::uint64_t>(
               std::thread::hardware_concurrency())) +
           ", \"engine_threads\": " +
           json::num(static_cast<std::uint64_t>(engineThreads(o.workload))) +
           ", \"compiler\": " + json::quote(compiler) +
           ", \"build_type\": " + json::quote(PERFBENCH_BUILD_TYPE) +
           ", \"steal_frac\": " + json::num(steal) + "}";
}

/** Every distinct request at `seed` with its 1-thread digest. */
void
recordSeed(std::uint64_t seed, std::map<std::string, std::string>& out)
{
    for (const RunWorkload& w : kRunWorkloads)
        out[requestKey(w.accels, w.networks, seed)] =
            serialDigest(simRequest(w.accels, w.networks, seed, 1));
    for (int c = 0; c < 2; ++c) {
        for (const ServeRequest& r : kSchedules[c])
            if (!r.fresh)
                out[requestKey(r.accels, r.networks, seed)] = serialDigest(
                    simRequest(r.accels, r.networks, seed, 1));
        const auto fresh = freshTemplates(c);
        for (std::size_t j = 0; j < kFreshRecorded; ++j) {
            const ServeRequest& r = fresh[j % fresh.size()];
            const std::uint64_t s = freshSeed(seed, c, j);
            out[requestKey(r.accels, r.networks, s)] =
                serialDigest(simRequest(r.accels, r.networks, s, 1));
        }
    }
}

int
recordReferences(const std::string& path)
{
    std::map<std::string, std::string> digests;
    recordSeed(kDefaultSeed, digests);
    recordSeed(kHeldOutSeed, digests);
    std::string out = "{";
    for (const auto& [key, digest] : digests)
        out += (out.size() > 1 ? ",\n " : "\n ") + json::quote(key) + ": " +
               json::quote(digest);
    writeFile(path, out + "\n}\n");
    std::printf("wrote %zu digests to %s\n", digests.size(), path.c_str());
    return 0;
}

/**
 * Run every workload of the spec once, both modes, at the default
 * seed: every named metric must come out with its unit and a finite
 * value, and nothing may fail.
 */
int
selftest(const Options& base)
{
    const serve::JsonValue spec = serve::parseJson(readFile(base.spec_path));
    int problems = 0;
    const auto complain = [&](const std::string& what) {
        std::fprintf(stderr, "selftest: %s\n", what.c_str());
        ++problems;
    };
    const auto checkDefs = [&](const char* field,
                               const std::vector<MetricDef>& defs) {
        const serve::JsonValue* list = spec.get(field);
        if (list == nullptr || list->array.size() != defs.size()) {
            complain(std::string(field) + ": metric count differs");
            return;
        }
        for (std::size_t i = 0; i < defs.size(); ++i)
            if (list->array[i].getString("name", "") != defs[i].name ||
                list->array[i].getString("unit", "") != defs[i].unit)
                complain(std::string(field) + ": " + defs[i].name +
                         " differs from the spec");
    };
    checkDefs("end_to_end", endToEndDefs());
    checkDefs("per_layer", perLayerDefs());

    const serve::JsonValue* workloads = spec.get("workloads");
    if (workloads == nullptr || workloads->array.empty())
        complain("spec names no workloads");
    for (const serve::JsonValue& entry :
         workloads ? workloads->array : std::vector<serve::JsonValue>{}) {
        for (const bool trace : {false, true}) {
            Options o = base;
            o.workload = entry.getString("name", "");
            o.trace = trace;
            o.seconds = 0.0;
            o.setups = 1;
            const Result result = runOnce(o);
            const std::string label =
                o.workload + (trace ? " (trace)" : "");
            std::printf("%s: %s\n", label.c_str(),
                        resultJson(result, trace).c_str());
            if (result.failed != 0 || result.attempted == 0)
                complain(label + ": failures or nothing attempted");
            for (const MetricDef& def :
                 trace ? perLayerDefs() : endToEndDefs()) {
                const auto it = result.values.find(def.name);
                if (it == result.values.end() || !std::isfinite(it->second))
                    complain(label + ": " + def.name +
                             " missing or not finite");
            }
            if (!trace && result.values.at("ok_frac") != 1.0)
                complain(label + ": ok_frac is not 1");
        }
    }
    std::printf("selftest: %s\n", problems == 0 ? "ok" : "FAILED");
    return problems == 0 ? 0 : 1;
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::stoull(value());
        else if (arg == "--seconds")
            o.seconds = std::stod(value());
        else if (arg == "--trace")
            o.trace = std::stoi(value()) != 0;
        else if (arg == "--refs")
            o.refs_path = value();
        else if (arg == "--out")
            o.out_dir = value();
        else if (arg == "--spec")
            o.spec_path = value();
        else if (arg == "--selftest")
            o.selftest = true;
        else if (arg == "--record-refs")
            o.record_refs_path = value();
        else if (arg == "--daemon")
            o.daemon_socket = value();
        else if (arg == "--ready-fd")
            o.ready_fd = std::stoi(value());
        else
            throw std::invalid_argument("unknown flag '" + arg + "'");
    }
    if (o.seed >= kMaxSeed)
        throw std::invalid_argument("--seed must be below 2^40");
    if (!(o.seconds >= 0.0))
        throw std::invalid_argument("--seconds must be >= 0");
    if (o.selftest && o.spec_path.empty())
        throw std::invalid_argument("--selftest needs --spec BENCHMARK.json");
    return o;
}

int
run(int argc, char** argv)
{
    // Armed fault injection changes what is measured.
    if (std::getenv("LOAS_FAULT_SPEC") != nullptr) {
        std::fprintf(stderr,
                     "perfbench: refusing to run with LOAS_FAULT_SPEC set\n");
        return 2;
    }
    const Options o = parseArgs(argc, argv);
    if (!o.daemon_socket.empty())
        return runDaemon(o.daemon_socket, o.ready_fd);
    std::filesystem::create_directories(o.out_dir);
    if (!o.record_refs_path.empty())
        return recordReferences(o.record_refs_path);
    if (o.selftest)
        return selftest(o);

    const auto before = cpuTimes();
    const Result result = runOnce(o);
    const std::string record = runRecord(o, before, cpuTimes());
    const std::string line = resultJson(result, o.trace);
    writeFile(o.out_dir + "/" + o.workload + "-seed" +
                  std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0") +
                  ".json",
              "{\"record\": " + record + ",\n \"result\": " + line + "}\n");
    std::printf("record: %s\n%s\n", record.c_str(), line.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    // The daemon writes replies to sockets a client may have closed.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
