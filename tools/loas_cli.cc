/**
 * @file
 * Command-line driver over the accelerator registry and the SimEngine.
 *
 *   loas_cli list [--json [PATH]]
 *       Print every registered accelerator key with its description.
 *       --json emits a machine-readable catalog (key, description,
 *       ft_workload, accepted spec options) for tooling/CI discovery,
 *       to PATH or stdout when PATH is omitted or "-".
 *
 *   loas_cli run [--accel LIST] [--network LIST] [--seed N]
 *                [--threads N] [--no-energy] [--json PATH]
 *       Run the (accelerator x network) job matrix and print a summary
 *       table (speedup and energy gain are relative to the first
 *       accelerator in LIST). LIST entries are comma-separated; an
 *       accelerator entry is a registry spec string, so design
 *       variants work directly: --accel "loas,loas?pes=64,gamma".
 *       --network accepts alexnet / vgg16 / resnet19 / all.
 *       --json writes the full report (per-category traffic, op
 *       counts, energy breakdown) to PATH, or stdout for "-".
 *
 *   loas_cli sweep --grid GRIDS [--network GRIDS] [--baseline SPEC]
 *                  [--seed N] [--threads N] [--no-energy]
 *                  [--csv PATH] [--json PATH]
 *       Expand design-space grids ("loas?pes=16,32,64&t=4,8,16") into
 *       one batched job matrix, simulate it, and emit derived columns
 *       (speedup vs --baseline, EDP, Pareto flag). Grids are
 *       semicolon-separated (commas separate values inside a grid);
 *       --grid may repeat. --network takes network grids
 *       ("vgg16-l8?ws=0.982,0.684,0.25") or named networks.
 *
 *   loas_cli cache stats|clear|warm --cache-dir PATH ...
 *       Manage the on-disk compiled-artifact cache: report occupancy,
 *       delete stored artifacts and result records, or warm it: run
 *       the designs and persist every artifact and result record a
 *       later run/sweep would replay.
 *
 *   loas_cli serve --socket PATH [--workers N] [--max-depth N] ...
 *       Long-running simulation daemon: accepts concurrent requests
 *       as newline-delimited JSON over a unix socket (schema
 *       loas-serve/8, see src/serve/protocol.hh), runs each as its
 *       own job through an async queue with deadlines, cancellation
 *       and backpressure, and shares one process-lifetime compiled
 *       cache across every request — a warm daemon serves repeat
 *       requests with zero compiles, replaying layer results it
 *       already has.
 *       SIGTERM/SIGINT drain and exit cleanly.
 *
 *   loas_cli request --socket PATH [run flags] [--json PATH]
 *       Client for the daemon: submit one run (the report written by
 *       --json is byte-identical to `loas_cli run --json` of the same
 *       parameters), or --cmd stats|version|shutdown, or --raw LINE.
 *
 *   loas_cli version
 *       One JSON object with the CLI version and every artifact
 *       schema/format version this binary reads or writes.
 *
 * run, sweep and serve accept the shared cache flags:
 *   --cache-dir PATH  persist compiled artifacts and layer results on
 *                     disk; a later invocation with the same flag
 *                     skips operand recompression and replays every
 *                     layer it has a record for
 *   --cache-mb N      in-memory compiled-cache byte budget in MiB
 *                     (0 = unlimited); LRU eviction, finished
 *                     networks first
 *   --cache-stats PATH
 *                     write the run's cache counters as JSON ("-":
 *                     stdout) — hits, misses, disk hits/writes/
 *                     rejects, result hits, result disk hits/writes,
 *                     evictions, compile_ms
 *
 * Exit status: 0 on success; 1 on any error raised inside a subcommand,
 * a bad flag value included (an overflowing --cache-mb, say); 2 when
 * the subcommand is missing or unknown (the usage text).
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/accel_spec.hh"
#include "api/json.hh"
#include "api/registry.hh"
#include "api/sim_engine.hh"
#include "api/sweep.hh"
#include "api/sweep_io.hh"
#include "api/versions.hh"
#include "common/fault.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "core/kernel_dispatch.hh"
#include "serve/client.hh"
#include "serve/json_parse.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "workload/artifact_store.hh"
#include "workload/compiled_cache.hh"

namespace {

using namespace loas;

int
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s list [--json [PATH]]\n"
        "       %s run [--accel LIST] [--network LIST] [--seed N]\n"
        "           [--batch N] [--threads N] [--no-energy]\n"
        "           [--json PATH] [cache flags]\n"
        "       %s sweep --grid GRIDS [--network GRIDS]\n"
        "           [--baseline SPEC] [--seed N] [--batch N]\n"
        "           [--threads N] [--no-energy] [--csv PATH]\n"
        "           [--json PATH] [cache flags]\n"
        "       loas_cli cache stats|clear --cache-dir PATH\n"
        "       loas_cli cache warm --cache-dir PATH [--accel LIST]\n"
        "           [--network GRIDS] [--seed N] [--threads N]\n"
        "       loas_cli serve --socket PATH [--workers N]\n"
        "           [--engine-threads N] [--max-depth N]\n"
        "           [--timeout-ms MS] [cache flags]\n"
        "       loas_cli request --socket PATH [--accel LIST]\n"
        "           [--network LIST] [--seed N] [--batch N]\n"
        "           [--no-energy] [--timeout-ms MS] [--no-wait]\n"
        "           [--json PATH] [--retries N] [--backoff-ms B]\n"
        "           [--cmd submit|stats|version|shutdown]\n"
        "           [--no-drain] [--raw LINE]\n"
        "       loas_cli version\n"
        "\n"
        "cache flags (run/sweep/serve):\n"
        "  --cache-dir PATH  persist compiled artifacts and layer\n"
        "                    results on disk and reuse them across\n"
        "                    invocations\n"
        "  --cache-mb N      in-memory compiled-cache budget in MiB\n"
        "                    (default 0 = unlimited)\n"
        "  --cache-stats PATH\n"
        "                    write cache counters as JSON (\"-\": stdout)\n"
        "\n"
        "simd (list/run/sweep/serve):\n"
        "  --isa NAME      force the join-kernel ISA: scalar, avx2 or\n"
        "                  avx512 (default: best the host supports;\n"
        "                  $LOAS_ISA configures any command)\n"
        "\n"
        "fault injection (run/sweep/serve/request):\n"
        "  --fault-spec SPEC\n"
        "                    arm deterministic fault injection, e.g.\n"
        "                    \"disk.write=0.02,engine.execute=0.01@seed=7\"\n"
        "                    ($LOAS_FAULT_SPEC configures any command)\n"
        "\n"
        "list:\n"
        "  --json [PATH]   machine-readable catalog of registered\n"
        "                  accelerators and their accepted spec options\n"
        "                  (PATH omitted or \"-\": stdout)\n"
        "\n"
        "run:\n"
        "  --accel LIST    comma-separated accelerator specs\n"
        "                  (default: sparten,gospa,gamma,loas,loas-ft)\n"
        "  --network LIST  alexnet, vgg16, resnet19, all (default), or\n"
        "                  single-layer grids like alexnet-l4?t=8\n"
        "                  (';'-separated when grids carry value lists)\n"
        "  --seed N        workload-synthesis seed (default 101)\n"
        "  --batch N       inputs per (accel, network) cell; each gets\n"
        "                  an independently-seeded spike tensor, weights\n"
        "                  and compiled artifacts are shared (default 1)\n"
        "  --threads N     worker threads, the whole budget (default:\n"
        "                  all cores)\n"
        "  --no-energy     skip the energy model\n"
        "  --json PATH     write the full report as JSON (\"-\": stdout)\n"
        "\n"
        "sweep:\n"
        "  --grid GRIDS    accelerator spec grids, ';'-separated; commas\n"
        "                  separate values (\"loas?pes=16,32,64&t=4,8\");\n"
        "                  the flag may repeat\n"
        "  --network GRIDS network grids, ';'-separated: alexnet, vgg16,\n"
        "                  resnet19, all, or single-layer workloads\n"
        "                  alexnet-l4 / vgg16-l8 / resnet19-l19 / t-hff\n"
        "                  with t= and ws= value lists (default: all)\n"
        "  --baseline SPEC design the speedup/energy-gain columns are\n"
        "                  relative to (default: first expanded design)\n"
        "  --csv PATH      write per-cell CSV (\"-\": stdout)\n"
        "  --json PATH     write the full sweep JSON (\"-\": stdout)\n"
        "\n"
        "serve:\n"
        "  --socket PATH   unix-socket path to listen on (required)\n"
        "  --workers N     concurrent engine runs (default 1)\n"
        "  --engine-threads N\n"
        "                  threads inside each run (default: all cores)\n"
        "  --max-depth N   queued jobs before submits get queue_full\n"
        "                  (default 64)\n"
        "  --timeout-ms MS default per-job deadline (default 0 = none)\n"
        "\n"
        "request:\n"
        "  --socket PATH   daemon socket to connect to (required)\n"
        "  --cmd CMD       submit (default), stats, version, shutdown\n"
        "  --json PATH     write the served report (\"-\": stdout);\n"
        "                  byte-identical to `run --json` of the same\n"
        "                  --accel/--network/--seed/--no-energy\n"
        "  --no-wait       submit asynchronously and print the job id\n"
        "  --no-drain      with --cmd shutdown: cancel in-flight jobs\n"
        "  --raw LINE      send LINE verbatim, print the reply line\n"
        "  --retries N     retry connect/reset/EPIPE failures N times\n"
        "                  with exponential backoff (default 0)\n"
        "  --backoff-ms B  first retry delay; doubles per retry with\n"
        "                  deterministic jitter (default 100)\n",
        argv0, argv0, argv0);
    return 2;
}

std::uint64_t
parseUint(const std::string& flag, const std::string& value)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument(flag + " value '" + value +
                                    "' is not a non-negative integer");
    return parsed;
}

/** Cursor over a subcommand's argv tail. */
class ArgCursor
{
  public:
    ArgCursor(int argc, char** argv) : argc_(argc), argv_(argv) {}

    bool more() const { return i_ < argc_; }

    std::string next() { return argv_[i_++]; }

    /** The next token without consuming it (only valid when more()). */
    std::string peek() const { return argv_[i_]; }

    /** The value following `flag`; throws when the tail is exhausted. */
    std::string
    value(const std::string& flag)
    {
        if (i_ >= argc_)
            throw std::invalid_argument(flag + " needs a value");
        return argv_[i_++];
    }

  private:
    int argc_;
    char** argv_;
    int i_ = 0;
};

/**
 * --isa NAME: pin the join-kernel ISA for this process (overrides the
 * cpuid pick and $LOAS_ISA). Unknown names are rejected here;
 * unsupported-on-this-host names are rejected by setIsa().
 */
bool
handleIsaFlag(const std::string& arg, ArgCursor& args)
{
    if (arg != "--isa")
        return false;
    const std::string name = args.value(arg);
    kernels::Isa isa;
    if (!kernels::parseIsa(name, &isa))
        throw std::invalid_argument(
            "--isa value '" + name +
            "' unknown (want scalar, avx2 or avx512)");
    kernels::setIsa(isa);
    return true;
}

/** Flags every subcommand shares; true when `arg` was consumed. */
bool
handleCommonFlag(const std::string& arg, ArgCursor& args,
                 std::uint64_t& seed, int& threads)
{
    if (arg == "--seed") {
        seed = parseUint(arg, args.value(arg));
        return true;
    }
    if (arg == "--threads") {
        threads = static_cast<int>(std::min<std::uint64_t>(
            parseUint(arg, args.value(arg)), 1024));
        return true;
    }
    return handleIsaFlag(arg, args);
}

/** Parse a --batch value (>= 1 enforced here, not in the engine). */
std::size_t
parseBatch(const std::string& flag, const std::string& value)
{
    const std::uint64_t batch = parseUint(flag, value);
    if (batch == 0)
        throw std::invalid_argument(flag + " must be >= 1");
    return static_cast<std::size_t>(batch);
}

/**
 * --fault-spec SPEC (run/sweep/serve/request): arm the
 * deterministic fault-injection registry, e.g.
 * "disk.write=0.02,engine.execute=0.01@seed=7" (common/fault.hh).
 * $LOAS_FAULT_SPEC does the same for every subcommand (tests, CI).
 */
bool
handleFaultFlag(const std::string& arg, ArgCursor& args)
{
    if (arg != "--fault-spec")
        return false;
    fault::configure(args.value(arg));
    return true;
}

/** Shared --cache-* flag state of the run/sweep/serve subcommands. */
struct CacheFlags
{
    std::string dir;
    std::uint64_t budget_bytes = 0;
    std::string stats_path;
};

/** True when `arg` was one of the shared cache flags (and consumed). */
bool
handleCacheFlag(const std::string& arg, ArgCursor& args,
                CacheFlags& flags)
{
    if (arg == "--cache-dir") {
        flags.dir = args.value(arg);
        return true;
    }
    if (arg == "--cache-mb") {
        const std::string value = args.value(arg);
        const std::uint64_t mb = parseUint(arg, value);
        if (mb > std::numeric_limits<std::uint64_t>::max() >> 20)
            throw std::invalid_argument(
                arg + " value '" + value +
                "' MiB does not fit in a 64-bit byte count");
        flags.budget_bytes = mb << 20;
        return true;
    }
    if (arg == "--cache-stats") {
        flags.stats_path = args.value(arg);
        return true;
    }
    return false;
}

/**
 * The process-lifetime compiled cache, configured from the flags.
 * Every engine run of one CLI invocation shares it, so e.g. the serve
 * daemon compiles each operand format once across all its requests.
 */
CompiledCache*
processCache(const CacheFlags& flags)
{
    CompiledCache& cache = CompiledCache::process();
    cache.setByteBudget(flags.budget_bytes);
    cache.setDiskDir(flags.dir);
    return &cache;
}

/** One-line cache accounting summary (stderr, grep-friendly). */
void
printCacheSummary(const CompiledCache::Stats& stats)
{
    std::fprintf(
        stderr,
        "compile cache: %llu misses, %llu hits, %llu disk hits, "
        "%llu disk writes, %llu disk rejects, %llu result hits, "
        "%llu result disk hits, %llu result disk writes, "
        "%llu evictions, %.3f compile ms, %.1f KB resident\n",
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.disk_hits),
        static_cast<unsigned long long>(stats.disk_writes),
        static_cast<unsigned long long>(stats.disk_rejects),
        static_cast<unsigned long long>(stats.result_hits),
        static_cast<unsigned long long>(stats.result_disk_hits),
        static_cast<unsigned long long>(stats.result_disk_writes),
        static_cast<unsigned long long>(stats.evictions),
        stats.compile_ms,
        static_cast<double>(stats.bytes) / 1024.0);
}

/** Write `content` to PATH, or stdout when PATH is "-". */
int
writeOutput(const std::string& path, const std::string& content,
            bool quiet = false)
{
    if (path == "-") {
        std::printf("%s", content.c_str());
        return 0;
    }
    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     path.c_str());
        return 1;
    }
    file << content;
    file.close();
    if (!file) {
        std::fprintf(stderr, "error writing '%s'\n", path.c_str());
        return 1;
    }
    if (!quiet)
        std::printf("wrote %s\n", path.c_str());
    return 0;
}

/** Honor --cache-stats: write the run's counters and the workload
 *  synthesis it needed as JSON. */
int
writeCacheStats(const CacheFlags& flags,
                const CompiledCache::Stats& stats,
                std::uint64_t synth_layers, double synth_ms)
{
    if (flags.stats_path.empty())
        return 0;
    return writeOutput(flags.stats_path,
                       json::toJson(stats, synth_layers, synth_ms) +
                           "\n",
                       flags.stats_path == "-");
}

int
runList(int argc, char** argv)
{
    bool as_json = false;
    std::string json_path = "-";
    ArgCursor args(argc, argv);
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--json") {
            as_json = true;
            // An optional PATH follows; a flag-like token ("--...") is
            // the next flag, not a filename to silently create.
            if (args.more() && args.peek().rfind("--", 0) != 0)
                json_path = args.next();
        } else if (handleIsaFlag(arg, args)) {
            continue;
        } else {
            throw std::invalid_argument("unknown flag '" + arg + "'");
        }
    }

    const auto& registry = AcceleratorRegistry::instance();
    const auto joined_options = [&](const std::string& key) {
        std::string joined;
        for (const auto& option : registry.entry(key).options)
            joined += (joined.empty() ? "" : ", ") + option;
        return joined;
    };

    if (!as_json) {
        TextTable table({"key", "description", "options"});
        for (const auto& key : registry.keys())
            table.addRow({key, registry.entry(key).description,
                          joined_options(key)});
        std::printf("%s", table.str().c_str());
        return 0;
    }

    // Machine-readable, schema-versioned catalog. Besides the registry
    // it reports how this host would execute: the resolved join-kernel
    // ISA and the worker-pool sizing (loas-list/2).
    const auto keys = registry.keys();
    std::string out = "{\n";
    out += std::string("  \"schema\": \"") + kListSchema + "\",\n";
    out += "  \"isa\": " +
           json::quote(kernels::isaName(kernels::resolvedIsa())) + ",\n";
    out += "  \"best_isa\": " +
           json::quote(kernels::isaName(kernels::bestSupportedIsa())) +
           ",\n";
    out += "  \"workers\": {\"engine_threads\": " +
           std::to_string(resolveThreads(0)) + "},\n";
    out += "  \"accelerators\": [\n";
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto& entry = registry.entry(keys[i]);
        out += "    {\"key\": " + json::quote(keys[i]) +
               ", \"description\": " + json::quote(entry.description) +
               ", \"ft_workload\": " +
               (entry.ft_workload ? "true" : "false") +
               ", \"options\": [";
        for (std::size_t o = 0; o < entry.options.size(); ++o) {
            out += json::quote(entry.options[o]);
            if (o + 1 < entry.options.size())
                out += ", ";
        }
        out += "]}";
        out += i + 1 < keys.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return writeOutput(json_path, out);
}

/**
 * Split a --network value into grid strings. Grid option values are
 * comma-separated ("alexnet-l4?t=4,8"), so lists holding grids use
 * ';'; plain name lists keep the historical comma form. The entries
 * feed expandNetworkGrids — the same resolution the sweep engine and
 * the serve daemon use, which is what makes a served report
 * byte-identical to the one-shot run of the same parameters.
 */
std::vector<std::string>
splitNetworkList(const std::string& list)
{
    const bool grid_form = list.find(';') != std::string::npos ||
                           list.find('?') != std::string::npos;
    return splitSpecList(list, grid_form ? ';' : ',');
}

int
runRun(int argc, char** argv)
{
    std::string accel_list = serve::kDefaultAccels;
    std::string network_list = "all";
    std::string json_path;
    SimRequest request;
    CacheFlags cache_flags;

    ArgCursor args(argc, argv);
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--accel")
            accel_list = args.value(arg);
        else if (arg == "--network")
            network_list = args.value(arg);
        else if (arg == "--batch")
            request.batch = parseBatch(arg, args.value(arg));
        else if (handleCommonFlag(arg, args, request.seed,
                                  request.threads))
            continue;
        else if (handleCacheFlag(arg, args, cache_flags))
            continue;
        else if (handleFaultFlag(arg, args))
            continue;
        else if (arg == "--no-energy")
            request.energy = false;
        else if (arg == "--json")
            json_path = args.value(arg);
        else
            throw std::invalid_argument("unknown flag '" + arg + "'");
    }

    request.accels = splitSpecList(accel_list);
    if (request.accels.empty())
        throw std::invalid_argument("--accel list is empty");
    request.networks =
        expandNetworkGrids(splitNetworkList(network_list));
    if (request.networks.empty())
        throw std::invalid_argument("--network list is empty");
    if (json_path == "-" && cache_flags.stats_path == "-")
        throw std::invalid_argument(
            "--json - and --cache-stats - would interleave two "
            "documents on stdout; write at most one of them to '-'");
    request.compiled_cache = processCache(cache_flags);

    const SimReport report = SimEngine().run(request);
    printCacheSummary(report.compile_cache);

    // Summary table, normalized to the first requested accelerator.
    std::vector<std::string> headers = {"network", "accel", "cycles",
                                        "speedup", "off-chip KB",
                                        "on-chip MB"};
    if (request.energy) {
        headers.push_back("energy uJ");
        headers.push_back("eff. gain");
    }
    TextTable table(std::move(headers));
    const std::string& base_accel = request.accels.front();
    for (const auto& net : request.networks) {
        const SimRun& base = report.at(base_accel, net.name);
        for (const auto& accel : request.accels) {
            const SimRun& run = report.at(accel, net.name);
            std::vector<std::string> row = {
                net.name, accel,
                TextTable::fmtInt(run.result.total_cycles),
                TextTable::fmtX(
                    static_cast<double>(base.result.total_cycles) /
                    static_cast<double>(run.result.total_cycles)),
                TextTable::fmt(run.result.traffic.dramBytes() / 1024.0,
                               1),
                TextTable::fmt(run.result.traffic.sramBytes() /
                                   (1024.0 * 1024.0),
                               2)};
            if (request.energy) {
                row.push_back(
                    TextTable::fmt(run.energy.totalPj() / 1e6, 2));
                row.push_back(TextTable::fmtX(base.energy.totalPj() /
                                              run.energy.totalPj()));
            }
            table.addRow(std::move(row));
        }
    }
    std::printf("%s", table.str().c_str());

    int rc = writeCacheStats(cache_flags, report.compile_cache,
                             report.synth_layers, report.synth_ms);
    if (!json_path.empty())
        rc |= writeOutput(json_path, json::toJson(report));
    return rc;
}

int
runSweep(int argc, char** argv)
{
    SweepRequest request;
    std::string csv_path, json_path;
    CacheFlags cache_flags;

    ArgCursor args(argc, argv);
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--grid")
            for (auto& grid : splitSpecList(args.value(arg), ';'))
                request.grids.push_back(std::move(grid));
        else if (arg == "--network")
            for (auto& grid : splitSpecList(args.value(arg), ';'))
                request.networks.push_back(std::move(grid));
        else if (arg == "--baseline")
            request.baseline = args.value(arg);
        else if (arg == "--batch")
            request.batch = parseBatch(arg, args.value(arg));
        else if (handleCommonFlag(arg, args, request.seed,
                                  request.threads))
            continue;
        else if (handleCacheFlag(arg, args, cache_flags))
            continue;
        else if (handleFaultFlag(arg, args))
            continue;
        else if (arg == "--no-energy")
            request.energy = false;
        else if (arg == "--csv")
            csv_path = args.value(arg);
        else if (arg == "--json")
            json_path = args.value(arg);
        else
            throw std::invalid_argument("unknown flag '" + arg + "'");
    }
    if (request.grids.empty())
        throw std::invalid_argument("sweep needs at least one --grid");
    const int stdout_sinks = (csv_path == "-") + (json_path == "-") +
                             (cache_flags.stats_path == "-");
    if (stdout_sinks > 1)
        throw std::invalid_argument(
            "--csv, --json and --cache-stats would interleave "
            "multiple documents on stdout; write at most one of them "
            "to '-'");
    if (request.networks.empty())
        request.networks.push_back("all");
    request.compiled_cache = processCache(cache_flags);

    const SweepReport report = SweepEngine().run(request);
    // The CSV/JSON artifacts stay cache-agnostic (byte-identical cold
    // or warm); the accounting goes to stderr and --cache-stats.
    printCacheSummary(report.compile_cache);

    // Summary table; full per-cell detail goes to --csv/--json.
    const bool to_stdout = csv_path == "-" || json_path == "-";
    if (!to_stdout) {
        std::vector<std::string> headers = {"network", "design",
                                            "cycles", "speedup"};
        if (request.energy) {
            headers.push_back("energy uJ");
            headers.push_back("eff. gain");
            headers.push_back("EDP uJ*Mcyc");
        }
        headers.push_back("pareto");
        TextTable table(std::move(headers));
        for (const auto& cell : report.cells) {
            std::vector<std::string> row = {
                cell.network,
                cell.accel_spec + (cell.is_baseline ? " *" : ""),
                TextTable::fmtInt(cell.result.total_cycles),
                TextTable::fmtX(cell.speedup)};
            if (request.energy) {
                row.push_back(
                    TextTable::fmt(cell.energy.totalPj() / 1e6, 2));
                row.push_back(TextTable::fmtX(cell.energy_gain));
                row.push_back(TextTable::fmt(cell.edp / 1e12, 3));
            }
            row.push_back(cell.pareto ? "yes" : "");
            table.addRow(std::move(row));
        }
        std::printf("%s", table.str().c_str());
        std::size_t n_designs = 0;
        for (const auto& cell : report.cells)
            if (cell.network == report.cells.front().network)
                ++n_designs;
        std::printf("(* = baseline %s; %zu designs x %zu networks)\n",
                    report.baseline.c_str(), n_designs,
                    n_designs == 0 ? 0
                                   : report.cells.size() / n_designs);
    }

    int rc = writeCacheStats(cache_flags, report.compile_cache,
                             report.synth_layers, report.synth_ms);
    if (!csv_path.empty())
        rc |= writeOutput(csv_path, toCsv(report), to_stdout);
    if (!json_path.empty())
        rc |= writeOutput(json_path, json::toJson(report), to_stdout);
    return rc;
}

/**
 * Manage the on-disk artifact cache.
 *
 *   cache stats --cache-dir PATH   occupancy + format versions
 *   cache clear --cache-dir PATH   delete every artifact and record
 *   cache warm  --cache-dir PATH [--accel LIST] [--network GRIDS]
 *               [--seed N] [--threads N]
 *       Run the given accelerators on the given networks through the
 *       engine (energy off) and persist every artifact and result
 *       record, so the *first* real run already replays every layer.
 */
int
runCache(int argc, char** argv)
{
    if (argc < 1)
        throw std::invalid_argument(
            "cache needs an action: stats, clear or warm");
    const std::string action = argv[0];
    if (action != "stats" && action != "clear" && action != "warm")
        throw std::invalid_argument(
            "unknown cache action '" + action +
            "' (known: stats, clear, warm)");

    std::string accel_list = serve::kDefaultAccels;
    std::string network_list = "all";
    std::uint64_t seed = 101;
    int threads = 0;
    CacheFlags cache_flags;

    ArgCursor args(argc - 1, argv + 1);
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--accel")
            accel_list = args.value(arg);
        else if (arg == "--network")
            network_list = args.value(arg);
        else if (handleCommonFlag(arg, args, seed, threads))
            continue;
        else if (handleCacheFlag(arg, args, cache_flags))
            continue;
        else
            throw std::invalid_argument("unknown flag '" + arg + "'");
    }
    if (cache_flags.dir.empty())
        throw std::invalid_argument("cache " + action +
                                    " needs --cache-dir PATH");

    const ArtifactStore store(cache_flags.dir);
    if (action == "stats") {
        const ArtifactStore::DiskStats stats = store.stats();
        std::printf("cache dir:      %s\n", store.dir().c_str());
        std::printf("format version: %u\n",
                    ArtifactStore::kFormatVersion);
        std::printf("result version: %u\n",
                    ArtifactStore::kResultVersion);
        std::printf("artifacts:      %llu\n",
                    static_cast<unsigned long long>(stats.files));
        std::printf("bytes:          %llu (%.1f KB)\n",
                    static_cast<unsigned long long>(stats.bytes),
                    static_cast<double>(stats.bytes) / 1024.0);
        std::printf("records:        %llu\n",
                    static_cast<unsigned long long>(stats.records));
        std::printf("record bytes:   %llu (%.1f KB)\n",
                    static_cast<unsigned long long>(stats.record_bytes),
                    static_cast<double>(stats.record_bytes) / 1024.0);
        std::printf("stale temps:    %llu\n",
                    static_cast<unsigned long long>(stats.tmp_files));
        return 0;
    }
    if (action == "clear") {
        const std::size_t removed = store.clear();
        std::printf("removed %zu files (artifacts, records, temps) "
                    "from %s\n",
                    removed, store.dir().c_str());
        return 0;
    }

    // warm: one engine run, energy off, over the disk-backed process
    // cache. Its misses persist every artifact and result record that
    // a later run/sweep with the same --cache-dir replays.
    SimRequest request;
    request.accels = splitSpecList(accel_list);
    request.networks =
        expandNetworkGrids(splitNetworkList(network_list));
    request.seed = seed;
    request.threads = threads;
    request.energy = false;
    request.compiled_cache = processCache(cache_flags);
    const SimReport report = SimEngine().run(request);

    const CompiledCache::Stats& stats = report.compile_cache;
    const ArtifactStore::DiskStats disk = store.stats();
    std::printf("warmed %s: %llu compiled, %llu records written, "
                "%llu artifacts + %llu records (%.1f KB) on disk\n",
                store.dir().c_str(),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.result_disk_writes),
                static_cast<unsigned long long>(disk.files),
                static_cast<unsigned long long>(disk.records),
                static_cast<double>(disk.bytes + disk.record_bytes) /
                    1024.0);
    return writeCacheStats(cache_flags, stats, report.synth_layers,
                           report.synth_ms);
}

/** `loas_cli version`: one JSON object, every version in one place. */
int
runVersion(int argc, char** argv)
{
    (void)argv;
    if (argc != 0)
        throw std::invalid_argument("version takes no flags");
    std::printf("%s\n", serve::versionJson().c_str());
    return 0;
}

serve::Server* g_server = nullptr;

extern "C" void
handleStopSignal(int)
{
    // Async-signal-safe: requestStop only write()s to a wake pipe.
    if (g_server != nullptr)
        g_server->requestStop(/*drain=*/true);
}

int
runServe(int argc, char** argv)
{
    serve::Server::Config config;
    CacheFlags cache_flags;

    ArgCursor args(argc, argv);
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--socket")
            config.socket_path = args.value(arg);
        else if (arg == "--workers")
            config.queue.workers = static_cast<int>(
                std::min<std::uint64_t>(parseUint(arg, args.value(arg)),
                                        256));
        else if (arg == "--engine-threads" || arg == "--threads")
            config.queue.engine_threads = static_cast<int>(
                std::min<std::uint64_t>(parseUint(arg, args.value(arg)),
                                        1024));
        else if (arg == "--max-depth")
            config.queue.max_depth = static_cast<std::size_t>(
                parseUint(arg, args.value(arg)));
        else if (arg == "--timeout-ms")
            config.queue.default_timeout_ms = static_cast<double>(
                parseUint(arg, args.value(arg)));
        else if (handleIsaFlag(arg, args))
            continue;
        else if (handleCacheFlag(arg, args, cache_flags))
            continue;
        else if (handleFaultFlag(arg, args))
            continue;
        else
            throw std::invalid_argument("unknown flag '" + arg + "'");
    }
    if (config.socket_path.empty())
        throw std::invalid_argument("serve needs --socket PATH");
    if (config.queue.workers < 1)
        throw std::invalid_argument("--workers must be >= 1");

    serve::Server server(config, processCache(cache_flags));
    g_server = &server;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);
    // A client that disconnects mid-reply must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    std::fprintf(stderr,
                 "loas_cli serve: listening on %s "
                 "(workers %d, max depth %zu)\n",
                 config.socket_path.c_str(), config.queue.workers,
                 config.queue.max_depth);
    server.run();
    g_server = nullptr;
    std::fprintf(stderr, "loas_cli serve: stopped\n");
    return 0;
}

int
runRequest(int argc, char** argv)
{
    std::string socket_path;
    std::string cmd = "submit";
    std::string accel_list = serve::kDefaultAccels;
    std::string network_list = "all";
    std::string json_path;
    std::string raw_line;
    std::uint64_t seed = 101;
    std::size_t batch = 1;
    bool energy = true;
    bool wait = true;
    bool drain = true;
    double timeout_ms = 0.0;
    serve::RetryPolicy retry;

    ArgCursor args(argc, argv);
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--socket")
            socket_path = args.value(arg);
        else if (arg == "--cmd")
            cmd = args.value(arg);
        else if (arg == "--accel")
            accel_list = args.value(arg);
        else if (arg == "--network")
            network_list = args.value(arg);
        else if (arg == "--seed")
            seed = parseUint(arg, args.value(arg));
        else if (arg == "--batch")
            batch = parseBatch(arg, args.value(arg));
        else if (arg == "--no-energy")
            energy = false;
        else if (arg == "--no-wait")
            wait = false;
        else if (arg == "--no-drain")
            drain = false;
        else if (arg == "--timeout-ms")
            timeout_ms =
                static_cast<double>(parseUint(arg, args.value(arg)));
        else if (arg == "--json")
            json_path = args.value(arg);
        else if (arg == "--raw")
            raw_line = args.value(arg);
        else if (arg == "--retries")
            retry.retries = static_cast<int>(
                std::min<std::uint64_t>(parseUint(arg, args.value(arg)),
                                        1000));
        else if (arg == "--backoff-ms")
            retry.backoff_ms =
                static_cast<double>(parseUint(arg, args.value(arg)));
        else if (handleFaultFlag(arg, args))
            continue;
        else
            throw std::invalid_argument("unknown flag '" + arg + "'");
    }
    if (socket_path.empty())
        throw std::invalid_argument("request needs --socket PATH");

    // Each exchange rides its own connection through the retry helper,
    // so a daemon that is late to listen, restarts between calls, or
    // drops a connection (injected socket fault, say) costs a backoff
    // delay instead of the whole invocation.
    const auto call = [&](const std::string& line) {
        return serve::callWithRetry(socket_path, line, retry);
    };

    if (!raw_line.empty()) {
        std::printf("%s\n", call(raw_line).c_str());
        return 0;
    }

    if (cmd == "stats" || cmd == "version") {
        std::printf("%s\n",
                    call("{\"cmd\": \"" + cmd + "\"}").c_str());
        return 0;
    }
    if (cmd == "shutdown") {
        std::printf("%s\n",
                    call(std::string("{\"cmd\": \"shutdown\", "
                                     "\"drain\": ") +
                         (drain ? "true" : "false") + "}")
                        .c_str());
        return 0;
    }
    if (cmd != "submit")
        throw std::invalid_argument(
            "unknown --cmd '" + cmd +
            "' (known: submit, stats, version, shutdown)");

    // Submit: the "network" field is ';'-separated on the wire, so a
    // comma-form name list translates; grids pass through verbatim.
    std::string network_field;
    for (const auto& entry : splitNetworkList(network_list)) {
        if (!network_field.empty())
            network_field += ';';
        network_field += entry;
    }
    std::string submit = "{\"cmd\": \"submit\"";
    submit += ", \"accel\": " + json::quote(accel_list);
    submit += ", \"network\": " + json::quote(network_field);
    submit += ", \"seed\": " + std::to_string(seed);
    // Omitted at 1: the wire default, and what serve/1 clients send.
    if (batch > 1)
        submit += ", \"batch\": " + std::to_string(batch);
    submit += std::string(", \"energy\": ") +
              (energy ? "true" : "false");
    if (timeout_ms > 0)
        submit += ", \"timeout_ms\": " + json::num(timeout_ms);
    if (!wait)
        submit += ", \"wait\": false";
    submit += "}";

    const serve::JsonValue reply = serve::parseJson(call(submit));
    if (!reply.getBool("ok", false)) {
        std::fprintf(stderr, "request failed: %s: %s\n",
                     reply.getString("error", "?").c_str(),
                     reply.getString("message", "").c_str());
        return 1;
    }
    const std::uint64_t id =
        static_cast<std::uint64_t>(reply.getNumber("id", 0));
    const std::string state = reply.getString("state", "?");
    if (!wait) {
        std::printf("submitted job %llu (%s)\n",
                    static_cast<unsigned long long>(id), state.c_str());
        return 0;
    }
    if (state != "done") {
        std::fprintf(stderr, "job %llu: %s%s%s\n",
                     static_cast<unsigned long long>(id),
                     state.c_str(),
                     reply.get("message") != nullptr ? ": " : "",
                     reply.getString("message", "").c_str());
        return 1;
    }
    const serve::JsonValue* stats = reply.get("stats");
    if (stats != nullptr) {
        const serve::JsonValue* cache = stats->get("cache");
        std::fprintf(
            stderr,
            "job %llu done: queue %.1f ms, run %.1f ms "
            "(synth %.1f ms, compile %.1f ms, sim %.1f ms), cache %g "
            "hits / %g misses / %g result hits / %g result disk hits / "
            "%g result disk writes\n",
            static_cast<unsigned long long>(id),
            stats->getNumber("queue_ms", 0), stats->getNumber("run_ms", 0),
            stats->getNumber("synth_ms", 0),
            stats->getNumber("compile_ms", 0),
            stats->getNumber("sim_ms", 0),
            cache != nullptr ? cache->getNumber("hits", 0) : 0.0,
            cache != nullptr ? cache->getNumber("misses", 0) : 0.0,
            cache != nullptr ? cache->getNumber("result_hits", 0) : 0.0,
            cache != nullptr ? cache->getNumber("result_disk_hits", 0)
                             : 0.0,
            cache != nullptr ? cache->getNumber("result_disk_writes", 0)
                             : 0.0);
    }
    const serve::JsonValue* report = reply.get("report");
    if (report == nullptr || !report->isString()) {
        std::fprintf(stderr, "reply carried no report\n");
        return 1;
    }
    if (!json_path.empty())
        return writeOutput(json_path, report->string,
                           json_path == "-");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string command = argv[1];
    try {
        // $LOAS_FAULT_SPEC arms fault injection for any subcommand;
        // an explicit --fault-spec flag overrides it.
        fault::configureFromEnv();
        if (command == "list")
            return runList(argc - 2, argv + 2);
        if (command == "run")
            return runRun(argc - 2, argv + 2);
        if (command == "sweep")
            return runSweep(argc - 2, argv + 2);
        if (command == "cache")
            return runCache(argc - 2, argv + 2);
        if (command == "serve")
            return runServe(argc - 2, argv + 2);
        if (command == "request")
            return runRequest(argc - 2, argv + 2);
        if (command == "version")
            return runVersion(argc - 2, argv + 2);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage(argv[0]);
}
