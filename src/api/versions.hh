/**
 * @file
 * Single source for every externally visible format/schema version:
 * the CLI's own version, the schema tag stamped into the list JSON
 * catalog, and the serve protocol revision. `loas_cli version`
 * emits them all in one object so clients (and the serve protocol's
 * `version` command) can check compatibility before submitting work;
 * the on-disk artifact format version lives with its serializer
 * (ArtifactStore::kFormatVersion) and is re-exported by that command.
 *
 * Bump rules: a schema tag changes whenever the corresponding
 * document's field set changes; the serve schema changes whenever a
 * request or response field changes meaning; the CLI version tracks
 * the PR sequence.
 */

#pragma once

namespace loas {

inline constexpr char kCliVersion[] = "0.11.0";

/** loas_cli list --json accelerator catalog; /2 added the resolved
 *  SIMD ISA and worker-pool sizing fields. */
inline constexpr char kListSchema[] = "loas-list/2";

/** loas_cli serve newline-delimited JSON protocol (src/serve/); /2
 *  added the "batch" submit field and "inferences_per_s" stats, /3
 *  the structured "error" field on failed-job replies and the disk
 *  circuit-breaker fields in cache stats, /4 the resolved SIMD ISA
 *  and worker-pool fields in the version and stats replies, /5 the
 *  synth_ms and synth_layers per-request stats, /6 the result_hits
 *  cache counter, /7 the result_disk_hits and result_disk_writes
 *  cache counters; /8 removed the deduped/coalesced_with reply fields
 *  and the deduped/coalesced queue counters (one job per submit). */
inline constexpr char kServeSchema[] = "loas-serve/8";

/** loas_cli version self-description object; /2 added the resolved
 *  SIMD ISA, /3 removed the bench_schema and kernels_schema fields
 *  with the bench subcommand. */
inline constexpr char kVersionSchema[] = "loas-version/3";

} // namespace loas
