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
 * accounting is thread-count invariant. All byte accounting funnels
 * through one insert/erase pair, so `bytes` always equals the sum of
 * the currently-resident artifacts' footprints, across hits, misses,
 * disk loads, evictions and clear().
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
        /** Corrupt / stale / mismatched disk files rejected. */
        std::uint64_t disk_rejects = 0;
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
        /** Sum of the resident artifacts' footprint estimates. */
        std::uint64_t bytes = 0;
        /** 1 while the breaker holds the disk level out of service. */
        std::uint64_t disk_degraded = 0;
    };

    using Compile = std::function<CompiledLayer()>;

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
     * level, else compiled via `compile` (and persisted when a disk
     * level is attached). Concurrent requests for the same key block
     * until the one compilation finishes and then share its artifact.
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
     * served until the byte budget actually needs their space. A later
     * hit promotes an entry back to the live pool.
     */
    void finishNetwork(const std::string& network);

    Stats stats() const;

    /** Drop every in-memory entry and reset the statistics. */
    void clear();

  private:
    /** One key's compilation slot; its mutex serializes the compile. */
    struct Slot
    {
        std::mutex mutex;
        std::shared_ptr<const CompiledLayer> value;

        // Accounting state, guarded by CompiledCache::mutex_.
        bool accounted = false;
        bool finished = false;
        std::list<std::string>::iterator lru_it;
    };

    /** Register a filled slot in stats/LRU. Caller holds mutex_. */
    void insertAccountedLocked(const std::string& key, Slot& slot);

    /** Remove a resident entry from stats/LRU. Caller holds mutex_. */
    void eraseAccountedLocked(Slot& slot);

    /** Mark use: move to the front of the live LRU. Holds mutex_. */
    void touchLocked(const std::string& key, Slot& slot);

    /** Evict until the budget holds, sparing `protect`. Holds mutex_. */
    void enforceBudgetLocked(const std::string& protect);

    /** True when this request may touch the disk level (breaker
     *  closed, or the cooldown elapsed and this is the half-open
     *  probe). Caller holds mutex_. */
    bool diskAllowedLocked() const;

    /** Feed one disk I/O outcome to the breaker. Holds mutex_. */
    void recordDiskOutcomeLocked(bool ok, Stats* attributed);

    mutable std::mutex mutex_;  // guards everything below
    std::unordered_map<std::string, std::shared_ptr<Slot>> slots_;
    /** Resident keys, most-recently-used first. */
    std::list<std::string> live_lru_;
    /** Finished-network keys, evicted before anything in live_lru_. */
    std::list<std::string> finished_lru_;
    std::uint64_t budget_ = 0;
    std::shared_ptr<const ArtifactStore> disk_;
    Stats stats_;

    // Disk circuit breaker (see setDiskBreaker).
    std::uint64_t breaker_threshold_ = 3;
    double breaker_cooldown_ms_ = 10000.0;
    std::uint64_t breaker_failures_ = 0;
    bool breaker_open_ = false;
    std::chrono::steady_clock::time_point breaker_retry_at_;
};

} // namespace loas
