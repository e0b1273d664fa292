/**
 * @file
 * Wire protocol of the `loas_cli serve` daemon: newline-delimited JSON
 * over a local stream socket, schema `loas-serve/8`. Every request is
 * one JSON object on one line, every reply one JSON object on one
 * line; a connection may issue any number of requests sequentially.
 * (serve/2 added the optional "batch" submit field and the
 * "inferences_per_s" stats field; requests that omit "batch" behave
 * exactly like serve/1 clients. serve/3 added the structured "error"
 * field on failed-job replies and the disk circuit-breaker fields —
 * disk_trips, disk_tmp_swept, disk_degraded — in cache stats.
 * serve/4 added the resolved SIMD "isa" and the "workers" pool-sizing
 * object to the version and stats replies. serve/5 added "synth_ms"
 * and "synth_layers" to per-request stats. serve/6 added the
 * "result_hits" counter — layers replayed from a result record
 * instead of executed — to cache stats. serve/7 added the
 * "result_disk_hits" and "result_disk_writes" counters — records read
 * from and written to the disk level. All are additive; older clients
 * keep working unchanged. serve/8 removed the "deduped" and
 * "coalesced_with" reply fields and the "deduped" and "coalesced"
 * queue counters: every submit is its own job, so clients that read
 * them with a default of false/0 keep working.)
 *
 * Requests ("cmd" selects one):
 *
 *   {"cmd":"submit", "accel":"sparten,loas", "network":"alexnet",
 *    "seed":101, "batch":1, "energy":true, "timeout_ms":0,
 *    "wait":true}
 *       Enqueue one simulation job — the same (accelerator x network)
 *       matrix `loas_cli run` executes, so a served report is
 *       byte-identical to the one-shot run of the same parameters.
 *       "accel" is a comma-separated spec list, "network" a
 *       semicolon-separated list of network names or single-layer
 *       grids (see expandNetworkGrids); "batch" (default 1) simulates
 *       that many independently-seeded inputs per cell. With "wait"
 *       (the default) the reply arrives when the job reaches a
 *       terminal state; with "wait":false the reply acknowledges the
 *       queued job and the client polls. Every accepted submit is its
 *       own job with its own id, deadline and cancel; identical
 *       requests share work only through the daemon's compiled cache.
 *
 *   {"cmd":"poll",   "id":N}     Job state (+ result when terminal).
 *   {"cmd":"cancel", "id":N}     Cancel a queued or running job.
 *   {"cmd":"stats"}              Queue counters + shared cache stats.
 *   {"cmd":"version"}            The loas_cli version object.
 *   {"cmd":"shutdown", "drain":true}
 *       Stop the daemon; drain=true finishes queued jobs first.
 *
 * Replies always carry "schema" and "ok". Transport/admission errors
 * are {"ok":false, "error":CODE, "message":...} with CODE one of
 * bad_request, queue_full, shutting_down, unknown_id. Job *outcomes*
 * are ok:true with "state" in queued|running|done|cancelled|timeout|
 * failed; a done reply embeds the full report document as the JSON
 * string field "report" — exactly the bytes `loas_cli run --json`
 * would have written — plus per-request "stats" (queue_ms, run_ms,
 * compile_ms — prepare time —, sim_ms, synth_ms and synth_layers —
 * the workload synthesis the run needed, 0 when every artifact was
 * cached —, inferences_per_s — batch x runs / run wall time — and the
 * exact attributed cache counters, the result_* record counters
 * included).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/sim_engine.hh"

namespace loas {
namespace serve {

class JsonValue;

/** Default accelerator list, shared with `loas_cli run`. */
inline constexpr char kDefaultAccels[] =
    "sparten,gospa,gamma,loas,loas-ft";

/** One submit request, as named on the wire. */
struct RunSpec
{
    /** Accelerator spec strings, in request order. */
    std::vector<std::string> accels;

    /** Network names / single-layer grid strings, in request order. */
    std::vector<std::string> networks;

    std::uint64_t seed = 101;

    /** Inputs per (accelerator, network) cell (engine passthrough). */
    std::size_t batch = 1;

    bool energy = true;

    /** Per-request deadline; 0 = the server's default (may be none). */
    double timeout_ms = 0.0;
};

/**
 * Parse the wire fields of a submit object ("accel", "network",
 * "seed", "batch", "energy", "timeout_ms") into a RunSpec. Missing
 * fields take the `loas_cli run` defaults so a bare {"cmd":"submit"}
 * serves the default matrix (and serve/1 clients that never send
 * "batch" get batch 1). Throws std::invalid_argument on bad
 * types/values.
 */
RunSpec parseRunSpec(const JsonValue& request);

/**
 * Read an unsigned-integer protocol field ("id", "seed"). JSON
 * numbers are doubles, exact only below 2^53 — anything at or above
 * that bound (or negative / fractional) throws std::invalid_argument
 * rather than silently decoding to a nearby different integer.
 */
std::uint64_t getUintField(const JsonValue& request,
                           const std::string& key,
                           std::uint64_t fallback);

/**
 * Lower a RunSpec to an engine request: resolve the network list
 * (throws std::invalid_argument for unknown names/grids) and copy the
 * scalar knobs. Cache wiring, threads and the cancel token stay with
 * the caller — the job queue owns those.
 */
SimRequest toSimRequest(const RunSpec& spec);

/** `{"schema":"loas-version/3", ...}` one-line version object: CLI
 *  version, the list and serve schema tags, on-disk artifact format,
 *  and the resolved join-kernel ISA. */
std::string versionJson();

/** One-line error reply. */
std::string errorResponse(const std::string& code,
                          const std::string& message);

/** Compact single-line rendering of cache counters + gauges. */
std::string cacheStatsJson(const CompiledCache::Stats& stats);

} // namespace serve
} // namespace loas
