/**
 * @file
 * On-disk level of the compiled-workload cache: one file per cache key
 * under a user-chosen directory (`--cache-dir`), so repeated CLI
 * invocations, bench runs and CI jobs skip operand recompression
 * entirely — and one result-record file per (cache key, design spec)
 * that executed it, so they skip the execute as well.
 *
 * File format (host-endian), the same header for both kinds:
 *     8 B  magic   "LOASART\0" (artifact) or "LOASRES\0" (record)
 *     4 B  format version (kFormatVersion; bumped on any layout change)
 *    [4 B  result version (kResultVersion), records only]
 *     8 B  checksum of the payload: FNV-1a over 64-bit words, then
 *          the trailing bytes (artio::fnv1aWords)
 *     8 B  payload size
 *     N B  payload: an artifact's cache key string, then the
 *          serialized CompiledLayer; a record's cache key and design
 *          spec strings, then the serialized LayerResults
 *          (artifact_io.hh)
 *
 * Robustness rules: every anomaly — missing file, short read, magic or
 * version mismatch, checksum failure, key or spec mismatch (hash
 * collision), malformed payload, or an injected disk.read fault — is
 * reported as a *rejection*, never an error; the caller recompiles (or
 * re-executes) and overwrites. Writes go to a process-unique temporary
 * name, are fsync'd, and only then renamed into place, so a crash (or
 * ENOSPC, or a short write) can never publish a torn file; concurrent
 * writers and readers only ever observe complete files. A writer dying
 * between open and rename orphans its temp file — sweepStaleTemps()
 * reclaims those by age, clear() unconditionally, and stats() counts
 * the ones present.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "accel/compiled_layer.hh"
#include "accel/run_result.hh"

namespace loas {

/** Directory of versioned, checksummed artifact and record files. */
class ArtifactStore
{
  public:
    /**
     * Bump on any change to the payload layout or header fields —
     * and, just as importantly, on any *behavioral* change to a
     * prepare() implementation or to workload synthesis. A stored
     * artifact is a pure function of (layer data, family, version);
     * the version stamp is what keeps a layout-compatible but
     * semantically different artifact from being served to a newer
     * binary as if it were fresh.
     */
    static constexpr std::uint32_t kFormatVersion = 5;

    /**
     * Stamped into result records beside kFormatVersion. A record is
     * only as fresh as the execute model that wrote it: bump this on
     * any change to what an execute() computes — a cycle model, a
     * traffic term, an op counter — which is exactly when the golden
     * RunResult table in tests/test_golden_identity.cc is re-captured
     * (GoldenIdentity.ResultVersionTracksGoldenTable pins the pair).
     */
    static constexpr std::uint32_t kResultVersion = 1;

    /** Filename suffix of artifact files (everything else is ignored). */
    static constexpr const char* kFileSuffix = ".loasart";

    /** Filename suffix of result-record files. */
    static constexpr const char* kRecordSuffix = ".loasres";

    /** Age past which an orphaned temp file counts as stale: long
     *  enough that no live writer (writes take milliseconds) can still
     *  own it, short enough that leaked space is reclaimed on the next
     *  attach rather than never. */
    static constexpr double kStaleTmpAgeSeconds = 3600.0;

    explicit ArtifactStore(std::string dir);

    const std::string& dir() const { return dir_; }

    /** Outcome of a load: at most one of layer, results and rejected
     *  is set. */
    struct LoadResult
    {
        /** The reconstructed layer (load()), or null. */
        std::shared_ptr<const CompiledLayer> layer;
        /** The reconstructed results (loadRecord()), or null. */
        std::shared_ptr<const LayerResults> results;
        /** True when a file existed but failed validation. */
        bool rejected = false;
        /**
         * True (alongside rejected) when the rejection was the I/O
         * itself failing — a short read or an injected disk.read
         * fault — rather than the *data* being stale or corrupt. The
         * cache's disk circuit breaker counts only these: a stale
         * format or result version must recompile (or re-execute) and
         * overwrite, not trip the store into memory-only mode.
         */
        bool io_error = false;
    };

    /** Load the artifact stored for `key`, validating everything. */
    LoadResult load(const std::string& key) const;

    /**
     * Persist `layer` under `key` (atomic rename; creates the
     * directory on first use). Returns false — without raising — when
     * the family is unknown or any filesystem step fails.
     */
    bool store(const std::string& key, const CompiledLayer& layer) const;

    /** Load the results `spec` stored for `key`'s artifact,
     *  validating everything (both versions included). */
    LoadResult loadRecord(const std::string& key,
                          const std::string& spec) const;

    /** Persist `results` as `spec`'s record for `key`, like store(). */
    bool storeRecord(const std::string& key, const std::string& spec,
                     const LayerResults& results) const;

    /** Current occupancy of the directory's cache files. */
    struct DiskStats
    {
        /** Artifact files and their bytes. */
        std::uint64_t files = 0;
        std::uint64_t bytes = 0;
        /** Result-record files and their bytes. */
        std::uint64_t records = 0;
        std::uint64_t record_bytes = 0;
        /** Orphaned temp files (dead writers) still on disk. */
        std::uint64_t tmp_files = 0;
    };
    DiskStats stats() const;

    /**
     * Delete every artifact and record file *and* every leftover temp
     * file; returns how many files were removed in total.
     */
    std::size_t clear() const;

    /**
     * Remove temp files whose mtime is older than `max_age_seconds`
     * (0 sweeps them all); returns how many were removed. Live
     * writers' temps are seconds old at most, so the default age
     * (kStaleTmpAgeSeconds) can only ever reap dead writers' leaks.
     */
    std::size_t sweepStaleTemps(
        double max_age_seconds = kStaleTmpAgeSeconds) const;

    /** Full path of the file that would store `key`. */
    std::string path(const std::string& key) const;

    /** Full path of the file that would store `spec`'s record for
     *  `key`. */
    std::string recordPath(const std::string& key,
                           const std::string& spec) const;

  private:
    std::string dir_;
};

} // namespace loas
