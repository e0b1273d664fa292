#include "serve/protocol.hh"

#include <stdexcept>

#include "api/accel_spec.hh"
#include "api/json.hh"
#include "api/sweep.hh"
#include "api/versions.hh"
#include "core/kernel_dispatch.hh"
#include "serve/json_parse.hh"
#include "workload/artifact_store.hh"

namespace loas {
namespace serve {

std::uint64_t
getUintField(const JsonValue& request, const std::string& key,
             std::uint64_t fallback)
{
    // JSON numbers are doubles: integers at or above 2^53 no longer
    // round-trip exactly, so a seed like 2^63+1 would silently parse
    // as a DIFFERENT integer that still passes the integrality check.
    // Reject the whole inexact range instead of guessing. The bound
    // also keeps the uint64 cast below well-defined.
    constexpr double kExactLimit = 9007199254740992.0;  // 2^53
    const double value =
        request.getNumber(key, static_cast<double>(fallback));
    if (value < 0 || value >= kExactLimit ||
        value != static_cast<double>(static_cast<std::uint64_t>(value)))
        throw std::invalid_argument(
            "field '" + key +
            "' must be a non-negative integer below 2^53");
    return static_cast<std::uint64_t>(value);
}

RunSpec
parseRunSpec(const JsonValue& request)
{
    RunSpec spec;
    spec.accels =
        splitSpecList(request.getString("accel", kDefaultAccels));
    // Semicolons, like sweep grids: network grid strings use commas
    // for value lists ("vgg16-l8?ws=0.982,0.25").
    spec.networks =
        splitSpecList(request.getString("network", "all"), ';');
    if (spec.accels.empty())
        throw std::invalid_argument("accel list is empty");
    if (spec.networks.empty())
        throw std::invalid_argument("network list is empty");
    spec.seed = getUintField(request, "seed", spec.seed);
    // serve/1 clients never send "batch"; the default keeps their
    // submits (and replies) exactly as before.
    spec.batch = static_cast<std::size_t>(
        getUintField(request, "batch", spec.batch));
    if (spec.batch == 0)
        throw std::invalid_argument("batch must be >= 1");
    spec.energy = request.getBool("energy", spec.energy);
    spec.timeout_ms = request.getNumber("timeout_ms", 0.0);
    if (spec.timeout_ms < 0)
        throw std::invalid_argument("timeout_ms must be >= 0");
    return spec;
}

SimRequest
toSimRequest(const RunSpec& spec)
{
    SimRequest request;
    request.accels = spec.accels;
    request.networks = expandNetworkGrids(spec.networks);
    request.seed = spec.seed;
    request.batch = spec.batch;
    request.energy = spec.energy;
    return request;
}

std::string
versionJson()
{
    std::string out = "{";
    out += "\"schema\": " + json::quote(kVersionSchema);
    out += ", \"cli\": " + json::quote(kCliVersion);
    out += ", \"bench_schema\": " + json::quote(kBenchSchema);
    out += ", \"kernels_schema\": " + json::quote(kKernelsSchema);
    out += ", \"list_schema\": " + json::quote(kListSchema);
    out += ", \"serve_schema\": " + json::quote(kServeSchema);
    out += ", \"artifact_format\": " +
           std::to_string(ArtifactStore::kFormatVersion);
    out += ", \"isa\": " +
           json::quote(kernels::isaName(kernels::resolvedIsa()));
    out += "}";
    return out;
}

std::string
errorResponse(const std::string& code, const std::string& message)
{
    return std::string("{\"schema\": ") + json::quote(kServeSchema) +
           ", \"ok\": false, \"error\": " + json::quote(code) +
           ", \"message\": " + json::quote(message) + "}";
}

std::string
cacheStatsJson(const CompiledCache::Stats& stats)
{
    std::string out = "{";
    out += "\"hits\": " + json::num(stats.hits);
    out += ", \"misses\": " + json::num(stats.misses);
    out += ", \"disk_hits\": " + json::num(stats.disk_hits);
    out += ", \"disk_writes\": " + json::num(stats.disk_writes);
    out += ", \"disk_rejects\": " + json::num(stats.disk_rejects);
    out += ", \"result_hits\": " + json::num(stats.result_hits);
    out += ", \"result_disk_hits\": " + json::num(stats.result_disk_hits);
    out += ", \"result_disk_writes\": " +
           json::num(stats.result_disk_writes);
    out += ", \"evictions\": " + json::num(stats.evictions);
    out += ", \"disk_trips\": " + json::num(stats.disk_trips);
    out += ", \"disk_tmp_swept\": " + json::num(stats.disk_tmp_swept);
    out += ", \"disk_degraded\": " + json::num(stats.disk_degraded);
    out += ", \"entries\": " + json::num(stats.entries);
    out += ", \"bytes\": " + json::num(stats.bytes);
    out += ", \"compile_ms\": " + json::num(stats.compile_ms);
    out += "}";
    return out;
}

} // namespace serve
} // namespace loas
