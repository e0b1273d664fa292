/**
 * @file
 * Shared compiled-workload cache, two levels deep.
 *
 * Level 1 is an in-memory memoization table: the SimEngine lowers each
 * layer with a backend's prepare() exactly once per cache key and
 * shares the resulting CompiledLayer read-only across every sweep cell
 * of the same format family — a `loas?pes=16,32,64` grid compresses
 * its operands once, not once per cell. The level can outlive a single
 * engine run (CompiledCache::process() is one process-lifetime
 * instance) and is bounded by an optional byte budget with LRU
 * eviction; layers of finished networks (see finishNetwork()) are
 * evicted before anything a live run may still want.
 *
 * Level 2 is an optional on-disk store (setDiskDir()): artifacts are
 * persisted as versioned, checksummed binary files, so a *new process*
 * — a repeated CLI invocation, a bench run, a CI job — skips
 * recompression entirely. Disk loads fill the in-memory level; disk
 * writes happen after a compile, via atomic rename (artifact_store.hh).
 * A failing disk cannot take the cache down with it: a circuit
 * breaker (setDiskBreaker()) counts consecutive disk I/O failures and
 * trips the store into memory-only mode, probing for recovery after a
 * cooldown — the degradation ladder is disk, then memory-only, then
 * recompile, never an error surfaced to the caller.
 *
 * Result records: a layer's execution results are memoized per design
 * that executed it, keyed by the design's canonical spec string
 * (AccelSpec::str()) and holding the per-input RunResults. A result is
 * a pure function of (artifact key, design spec, input), so a repeated
 * request replays its layers instead of executing them. getOrRun()
 * looks a layer up record first: the record in the artifact's memory
 * slot, then the record file on the disk level (which needs no
 * artifact at all), and only then the artifact, which it executes. A
 * memory record lives and dies with its slot — eviction, clear(),
 * finished-network demotion and a failed insert all take it along; a
 * disk record is written beside the artifacts and never promoted into
 * memory.
 *
 * Keys name the workload-side identity of an artifact:
 * (network, layer index, ft-variant, format family, timesteps,
 * workload seed, batch size). Hardware options are deliberately
 * absent —
 * prepare() output must not depend on them (that is what makes a
 * family a family) — while the ft-variant component keeps `loas` and
 * `loas-ft` apart and the seed component keeps differently-synthesized
 * workloads apart once the cache outlives one engine run.
 *
 * Thread safety: every member is callable from any number of worker
 * threads. Exactly one caller compiles a given key (per-slot mutex);
 * the rest block on that slot and then share the artifact, so hit/miss
 * accounting is thread-count invariant; memory records are filled
 * once-only the same way (per-record mutex), so result_hits is too.
 * All byte accounting funnels through one insert/erase pair plus the
 * record fill, so `bytes` always equals the sum of the
 * currently-resident artifacts' footprints and their records'
 * (recordBytes()), across hits, misses, disk loads, evictions and
 * clear().
 *
 * Accounting comes in two views. stats() is the cache-wide total,
 * snapshotted consistently under the cache mutex. For per-request
 * accounting, getOrCompile() additionally takes an `attributed` Stats
 * the caller owns: every counter the call bumps globally is bumped
 * there too, under the same mutex, so a request's counters are exact
 * even while other engines hammer the same cache concurrently — the
 * serve daemon's per-request cache deltas come from this, not from
 * subtracting racy before/after snapshots.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "accel/compiled_layer.hh"
#include "accel/run_result.hh"

namespace loas {

class ArtifactStore;

/** Canonical cache key of one compiled layer (see file comment). */
std::string compiledLayerKey(const std::string& network,
                             std::size_t layer_index, bool ft_workload,
                             const std::string& family, int timesteps,
                             std::uint64_t seed, std::size_t batch = 1);

/** Memoizes CompiledLayer artifacts by key, bounded and persistent. */
class CompiledCache
{
  public:
    /** Aggregate accounting, readable while the cache is in use. */
    struct Stats
    {
        // Counters, monotonic over the cache lifetime (until clear()).
        std::uint64_t hits = 0;
        /** Cache misses == compilations actually performed. */
        std::uint64_t misses = 0;
        /** Artifacts served from the on-disk level (not recompiled). */
        std::uint64_t disk_hits = 0;
        /** Artifacts persisted to the on-disk level. */
        std::uint64_t disk_writes = 0;
        /** Corrupt / stale / mismatched disk files (artifacts and
         *  records) rejected. */
        std::uint64_t disk_rejects = 0;
        /** Layer results served from a memory record, not executed. */
        std::uint64_t result_hits = 0;
        /** Layer results served from a disk record: no artifact
         *  loaded, nothing executed. */
        std::uint64_t result_disk_hits = 0;
        /** Result records persisted to the on-disk level. */
        std::uint64_t result_disk_writes = 0;
        /** Entries evicted to honor the byte budget. */
        std::uint64_t evictions = 0;
        /** Times the disk circuit breaker tripped to memory-only. */
        std::uint64_t disk_trips = 0;
        /** Stale writer temp files swept when attaching the disk. */
        std::uint64_t disk_tmp_swept = 0;
        /** Time spent inside compile callbacks (prepare), summed
         *  over the threads that ran them. */
        double compile_ms = 0.0;

        // Gauges: current in-memory occupancy.
        std::uint64_t entries = 0;
        /** Sum of the resident artifacts' footprint estimates plus
         *  their result records' (recordBytes()). */
        std::uint64_t bytes = 0;
        /** 1 while the breaker holds the disk level out of service. */
        std::uint64_t disk_degraded = 0;
    };

    using Compile = std::function<CompiledLayer()>;
    using Execute = std::function<LayerResults(const CompiledLayer&)>;

    CompiledCache() = default;
    ~CompiledCache();
    CompiledCache(const CompiledCache&) = delete;
    CompiledCache& operator=(const CompiledCache&) = delete;

    /**
     * The process-lifetime instance shared by CLI/bench engine runs.
     * Configure it once (budget, disk dir) and pass it via
     * SimRequest::compiled_cache; per-run reports are attributed
     * (see getOrCompile).
     */
    static CompiledCache& process();

    /**
     * The compiled layer for `key`: from memory, else from the on-disk
     * level, else compiled via `compile` (and persisted when
     * setDiskDir() gave it a disk level). Concurrent requests for the
     * same key block until the one compilation finishes and then share
     * its artifact.
     *
     * When `attributed` is given, every counter this call adds to the
     * global stats (hits/misses/disk traffic/evictions/compile_ms) is
     * also added there, under the cache mutex — callers sharing one
     * `attributed` across their worker threads get an exact per-run
     * tally with no extra synchronization. Its gauges are left alone.
     *
     * `on_miss` runs right before `compile`, only when both levels
     * missed, outside compile_ms (the SimEngine synthesizes there).
     */
    std::shared_ptr<const CompiledLayer>
    getOrCompile(const std::string& key, const Compile& compile,
                 Stats* attributed = nullptr,
                 const std::function<void()>& on_miss = {});

    /**
     * The results of executing `key`'s artifact on the design whose
     * canonical spec string is `spec`, from the first of:
     *  1. the memory record in the artifact's resident slot — a result
     *     hit, which is also a hit on the artifact and promotes it in
     *     the LRU, exactly as getOrCompile(key, ...) would;
     *  2. the record file on the disk level — a result disk hit, which
     *     loads no artifact and keeps nothing in memory;
     *  3. execute() on the artifact getOrCompile(key, compile,
     *     attributed, on_miss) returns. The results become the slot's
     *     record for `spec` while the slot stays resident, and are
     *     persisted on the disk level (result_disk_writes).
     * Concurrent requests for one (key, spec) execute once: the rest
     * block on the record until it is filled, then share it. A slot
     * that is not retained (a failed insert) executes and keeps
     * nothing in memory.
     *
     * One request captures the disk level once: a read fault that
     * trips the breaker mid-call still lets this call's stores probe
     * it, as in getOrCompile. `attributed` works as in getOrCompile.
     */
    std::shared_ptr<const LayerResults>
    getOrRun(const std::string& key, const std::string& spec,
             const Compile& compile, const Execute& execute,
             Stats* attributed = nullptr,
             const std::function<void()>& on_miss = {});

    /** Bytes a result record of `inputs` results for `spec` adds to
     *  Stats::bytes and the byte budget. */
    static std::uint64_t recordBytes(const std::string& spec,
                                     std::size_t inputs);

    /**
     * In-memory byte budget; 0 = unlimited. When an insert pushes
     * `bytes` past the budget, least-recently-used entries are evicted
     * — finished-network entries first — until the budget holds again
     * (the just-inserted entry itself is never evicted, so one
     * over-budget artifact still caches).
     */
    void setByteBudget(std::uint64_t budget);

    /**
     * Attach (or detach, with "") the on-disk level rooted at `dir`.
     * The directory is created on first use. Attaching sweeps stale
     * writer temp files (counted in Stats::disk_tmp_swept) and resets
     * the disk circuit breaker.
     */
    void setDiskDir(const std::string& dir);

    /**
     * Disk circuit breaker: after `threshold` consecutive disk I/O
     * failures (short/injected reads, failed stores — not data
     * rejections), the disk level is taken out of service and every
     * request runs memory-only (Stats::disk_degraded = 1). After
     * `cooldown_ms` one request probes the disk again (half-open): a
     * success restores full service, a failure re-arms the cooldown.
     * threshold 0 disables the breaker. Defaults: 3 failures, 10 s.
     */
    void setDiskBreaker(std::uint64_t threshold, double cooldown_ms);

    /**
     * Demote every resident entry of `network` to evict-first status.
     * Engines call this when a run retires a network; the entries stay
     * served until the byte budget actually needs their space, and the
     * network finished longest ago goes first. A later hit promotes an
     * entry back to the live pool.
     */
    void finishNetwork(const std::string& network);

    Stats stats() const;

    /** Drop every in-memory entry and reset the statistics. */
    void clear();

  private:
    /** One design's results on a slot's artifact; its mutex
     *  serializes the execute that fills it. `results` is written
     *  under both that mutex and mutex_, so either one reads it. */
    struct Record
    {
        std::mutex mutex;
        std::shared_ptr<const LayerResults> results;
    };

    /** One key's compilation slot; its mutex serializes the compile. */
    struct Slot
    {
        std::mutex mutex;
        std::shared_ptr<const CompiledLayer> value;

        // Accounting state, guarded by CompiledCache::mutex_.
        bool accounted = false;
        bool finished = false;
        std::list<std::string>::iterator lru_it;
        /** Result records by canonical design spec. */
        std::unordered_map<std::string, std::shared_ptr<Record>> records;
        /** Sum of recordBytes() over the filled records. */
        std::uint64_t record_bytes = 0;
    };

    using Disk = std::shared_ptr<const ArtifactStore>;

    /** getOrCompile() over the disk level `disk`, returning the filled
     *  slot (retained or not) rather than its artifact. */
    std::shared_ptr<Slot> fillSlot(const std::string& key,
                                   const Compile& compile,
                                   Stats* attributed,
                                   const std::function<void()>& on_miss,
                                   const Disk& disk);

    /** Register a filled slot in stats/LRU. Caller holds mutex_. */
    void insertAccountedLocked(const std::string& key, Slot& slot);

    /** Remove a resident entry from stats/LRU. Caller holds mutex_. */
    void eraseAccountedLocked(Slot& slot);

    /** Mark use: move to the front of the live LRU. Holds mutex_. */
    void touchLocked(const std::string& key, Slot& slot);

    /** Add one to `counter` in the global stats and in `attributed`.
     *  Caller holds mutex_. */
    void countLocked(std::uint64_t Stats::*counter, Stats* attributed);

    /** Evict until the budget holds, sparing `protect`; evictions are
     *  attributed like any counter. Holds mutex_. */
    void enforceBudgetLocked(const std::string& protect,
                             Stats* attributed);

    /** The disk level this request may use: null when detached, or
     *  while the breaker holds it out of service (open, and this is
     *  not the half-open probe past the cooldown). Holds mutex_. */
    Disk requestDiskLocked() const;

    /** Feed one disk I/O outcome to the breaker. Holds mutex_. */
    void recordDiskOutcomeLocked(bool ok, Stats* attributed);

    mutable std::mutex mutex_;  // guards everything below
    std::unordered_map<std::string, std::shared_ptr<Slot>> slots_;
    /** Resident keys, most-recently-used first. */
    std::list<std::string> live_lru_;
    /** Finished-network keys, most recently finished first; evicted
     *  from the back, before anything in live_lru_. */
    std::list<std::string> finished_lru_;
    std::uint64_t budget_ = 0;
    Disk disk_;
    Stats stats_;

    // Disk circuit breaker (see setDiskBreaker).
    std::uint64_t breaker_threshold_ = 3;
    double breaker_cooldown_ms_ = 10000.0;
    std::uint64_t breaker_failures_ = 0;
    bool breaker_open_ = false;
    std::chrono::steady_clock::time_point breaker_retry_at_;
};

} // namespace loas
