/**
 * @file
 * Single source for every externally visible format/schema version:
 * the CLI's own version, the schema tags stamped into the bench/list
 * JSON artifacts, and the serve protocol revision. `loas_cli version`
 * emits them all in one object so clients (and the serve protocol's
 * `version` command) can check compatibility before submitting work;
 * the on-disk artifact format version lives with its serializer
 * (ArtifactStore::kFormatVersion) and is re-exported by that command.
 *
 * Bump rules: a schema tag changes whenever the corresponding
 * document's field set changes (bench_compare.py refuses mismatched
 * schemas); the serve schema changes whenever a request or response
 * field changes meaning; the CLI version tracks the PR sequence.
 */

#pragma once

namespace loas {

inline constexpr char kCliVersion[] = "0.10.0";

/** loas_cli bench BENCH_sweep.json ("metrics" list; /4 added the
 *  served-throughput metric, /5 the batched-inference metrics, /6 the
 *  fault-hook overhead metric). */
inline constexpr char kBenchSchema[] = "loas-bench/6";

/** loas_cli bench BENCH_kernels.json kernel microbench companion; /2
 *  added the fused temporally-parallel join metrics and the fused
 *  SparTen steady-state allocation gates, /3 the per-ISA scalar join
 *  metrics and the simd_speedup ratio. */
inline constexpr char kKernelsSchema[] = "loas-kernels/3";

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
 *  SIMD ISA. */
inline constexpr char kVersionSchema[] = "loas-version/2";

} // namespace loas
