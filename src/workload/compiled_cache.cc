#include "workload/compiled_cache.hh"

#include <cassert>
#include <chrono>
#include <iterator>

#include "common/fault.hh"
#include "workload/artifact_store.hh"

namespace loas {

std::string
compiledLayerKey(const std::string& network, std::size_t layer_index,
                 bool ft_workload, const std::string& family,
                 int timesteps, std::uint64_t seed, std::size_t batch)
{
    return network + "#l" + std::to_string(layer_index) +
           (ft_workload ? "#ft" : "#plain") + "#" + family + "#t" +
           std::to_string(timesteps) + "#s" + std::to_string(seed) +
           "#b" + std::to_string(batch);
}

CompiledCache::~CompiledCache() = default;

CompiledCache&
CompiledCache::process()
{
    static CompiledCache instance;
    return instance;
}

void
CompiledCache::insertAccountedLocked(const std::string& key, Slot& slot)
{
    assert(!slot.accounted);
    ++stats_.entries;
    stats_.bytes += slot.value->bytes;
    live_lru_.push_front(key);
    slot.lru_it = live_lru_.begin();
    slot.accounted = true;
    slot.finished = false;
}

void
CompiledCache::eraseAccountedLocked(Slot& slot)
{
    assert(slot.accounted);
    assert(stats_.entries > 0);
    assert(stats_.bytes >= slot.value->bytes + slot.record_bytes);
    --stats_.entries;
    stats_.bytes -= slot.value->bytes + slot.record_bytes;
    (slot.finished ? finished_lru_ : live_lru_).erase(slot.lru_it);
    slot.accounted = false;
}

void
CompiledCache::touchLocked(const std::string& key, Slot& slot)
{
    if (!slot.accounted)
        return;
    // A hit on a finished-network entry promotes it back to the live
    // pool: something is using that network again.
    (slot.finished ? finished_lru_ : live_lru_).erase(slot.lru_it);
    live_lru_.push_front(key);
    slot.lru_it = live_lru_.begin();
    slot.finished = false;
}

void
CompiledCache::countLocked(std::uint64_t Stats::*counter,
                           Stats* attributed)
{
    ++(stats_.*counter);
    if (attributed)
        ++(attributed->*counter);
}

void
CompiledCache::enforceBudgetLocked(const std::string& protect,
                                   Stats* attributed)
{
    while (budget_ != 0 && stats_.bytes > budget_) {
        // Finished-network entries go first, oldest first; then plain
        // LRU over the live pool, always sparing the entry whose
        // insert triggered the enforcement.
        std::string victim;
        if (!finished_lru_.empty() && finished_lru_.back() != protect)
            victim = finished_lru_.back();
        else if (finished_lru_.size() > 1)
            victim = *std::next(finished_lru_.rbegin());
        else if (!live_lru_.empty() && live_lru_.back() != protect)
            victim = live_lru_.back();
        else if (live_lru_.size() > 1)
            victim = *std::next(live_lru_.rbegin());
        else
            return; // only the protected entry remains
        const auto it = slots_.find(victim);
        assert(it != slots_.end());
        eraseAccountedLocked(*it->second);
        slots_.erase(it);
        countLocked(&Stats::evictions, attributed);
    }
}

CompiledCache::Disk
CompiledCache::requestDiskLocked() const
{
    // An open breaker holds the whole request memory-only: no load, no
    // store, until one request past the cooldown probes the disk again
    // (half-open) and closes it.
    if (breaker_open_ &&
        std::chrono::steady_clock::now() < breaker_retry_at_)
        return nullptr;
    return disk_;
}

void
CompiledCache::recordDiskOutcomeLocked(bool ok, Stats* attributed)
{
    if (ok) {
        breaker_failures_ = 0;
        if (breaker_open_) {
            breaker_open_ = false;
            stats_.disk_degraded = 0;
        }
        return;
    }
    const auto cooldown = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(
            breaker_cooldown_ms_));
    if (breaker_open_) {
        // The half-open probe failed: re-arm the cooldown.
        breaker_retry_at_ = std::chrono::steady_clock::now() + cooldown;
        return;
    }
    if (breaker_threshold_ == 0 ||
        ++breaker_failures_ < breaker_threshold_)
        return;
    breaker_open_ = true;
    breaker_retry_at_ = std::chrono::steady_clock::now() + cooldown;
    countLocked(&Stats::disk_trips, attributed);
    stats_.disk_degraded = 1;
}

std::shared_ptr<const CompiledLayer>
CompiledCache::getOrCompile(const std::string& key,
                            const Compile& compile, Stats* attributed,
                            const std::function<void()>& on_miss)
{
    Disk disk;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        disk = requestDiskLocked();
    }
    return fillSlot(key, compile, attributed, on_miss, disk)->value;
}

std::shared_ptr<CompiledCache::Slot>
CompiledCache::fillSlot(const std::string& key, const Compile& compile,
                        Stats* attributed,
                        const std::function<void()>& on_miss,
                        const Disk& disk)
{
    std::shared_ptr<Slot> slot;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto& entry = slots_[key];
        if (!entry)
            entry = std::make_shared<Slot>();
        slot = entry;
    }

    // The slot mutex makes the fill once-only: the first caller loads
    // or compiles while any concurrent caller for the same key blocks
    // here, wakes to a filled slot, and counts a hit.
    const std::lock_guard<std::mutex> slot_lock(slot->mutex);
    if (slot->value) {
        const std::lock_guard<std::mutex> lock(mutex_);
        countLocked(&Stats::hits, attributed);
        touchLocked(key, *slot);
        return slot;
    }

    // Disk level: a validated file is as good as a compile and far
    // cheaper; a rejected one (corrupt, stale version, collision)
    // falls through to recompile-and-overwrite.
    bool disk_rejected = false;
    bool disk_io_error = false;
    bool persisted = false;
    double ms = 0.0;
    if (disk) {
        ArtifactStore::LoadResult loaded = disk->load(key);
        disk_rejected = loaded.rejected;
        disk_io_error = loaded.io_error;
        slot->value = std::move(loaded.layer);
    }
    const bool disk_hit = slot->value != nullptr;
    if (!disk_hit) {
        if (on_miss)
            on_miss();
        using Clock = std::chrono::steady_clock;
        const auto start = Clock::now();
        slot->value = std::make_shared<const CompiledLayer>(compile());
        ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                       start)
                 .count();
        if (disk)
            persisted = disk->store(key, *slot->value);
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    if (disk_hit) {
        countLocked(&Stats::disk_hits, attributed);
        recordDiskOutcomeLocked(true, attributed);
    } else {
        countLocked(&Stats::misses, attributed);
        stats_.compile_ms += ms;
        if (attributed)
            attributed->compile_ms += ms;
        if (disk_rejected)
            countLocked(&Stats::disk_rejects, attributed);
        if (persisted)
            countLocked(&Stats::disk_writes, attributed);
        // Feed the breaker: a failed read (I/O, not data) and the
        // store's outcome each count. Data rejections stay out of it —
        // a stale format version must overwrite, not disable the disk
        // level.
        if (disk) {
            if (disk_io_error)
                recordDiskOutcomeLocked(false, attributed);
            recordDiskOutcomeLocked(persisted, attributed);
        }
    }
    // The slot may have been dropped by clear() while it filled; only
    // a slot still in the table joins the accounting and the LRU.
    const auto it = slots_.find(key);
    if (it != slots_.end() && it->second == slot) {
        if (fault::shouldFail(fault::Site::CacheInsert)) {
            // Injected insert failure: serve the artifact but do not
            // retain it — the next request for this key loads or
            // compiles afresh.
            slots_.erase(it);
        } else {
            insertAccountedLocked(key, *slot);
            enforceBudgetLocked(key, attributed);
        }
    }
    return slot;
}

std::shared_ptr<const LayerResults>
CompiledCache::getOrRun(const std::string& key, const std::string& spec,
                        const Compile& compile, const Execute& execute,
                        Stats* attributed,
                        const std::function<void()>& on_miss)
{
    // 1. The memory record. One whose execute is still in flight is
    //    waited for below instead of looked up on disk.
    Disk disk;
    bool in_flight = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        disk = requestDiskLocked();
        const auto it = slots_.find(key);
        if (it != slots_.end() && it->second->accounted) {
            Slot& slot = *it->second;
            const auto record = slot.records.find(spec);
            if (record != slot.records.end()) {
                if (record->second->results) {
                    countLocked(&Stats::hits, attributed);
                    countLocked(&Stats::result_hits, attributed);
                    touchLocked(key, slot);
                    return record->second->results;
                }
                in_flight = true;
            }
        }
    }

    // 2. The disk record: no artifact, no execute. A rejected one is
    //    re-executed and overwritten below; only an I/O error feeds
    //    the breaker.
    if (disk && !in_flight) {
        ArtifactStore::LoadResult loaded = disk->loadRecord(key, spec);
        if (loaded.results || loaded.rejected) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (loaded.results) {
                countLocked(&Stats::result_disk_hits, attributed);
                recordDiskOutcomeLocked(true, attributed);
                return std::move(loaded.results);
            }
            if (loaded.io_error)
                recordDiskOutcomeLocked(false, attributed);
            else
                countLocked(&Stats::disk_rejects, attributed);
        }
    }

    // 3. The artifact, then its slot's record for `spec`: the first
    //    caller executes while concurrent callers block on the record
    //    mutex, wake to a filled record, and count a result hit.
    const std::shared_ptr<Slot> slot =
        fillSlot(key, compile, attributed, on_miss, disk);
    std::shared_ptr<Record> record;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(key);
        if (it != slots_.end() && it->second == slot) {
            auto& entry = slot->records[spec];
            if (!entry)
                entry = std::make_shared<Record>();
            record = entry;
        }
    }
    std::unique_lock<std::mutex> record_lock;
    if (record) {
        record_lock = std::unique_lock<std::mutex>(record->mutex);
        const std::lock_guard<std::mutex> lock(mutex_);
        if (record->results) {
            countLocked(&Stats::result_hits, attributed);
            return record->results;
        }
    }
    auto results =
        std::make_shared<const LayerResults>(execute(*slot->value));
    const bool persisted = disk && disk->storeRecord(key, spec, *results);

    const std::lock_guard<std::mutex> lock(mutex_);
    if (persisted)
        countLocked(&Stats::result_disk_writes, attributed);
    if (disk)
        recordDiskOutcomeLocked(persisted, attributed);
    if (!record)
        return results;
    record->results = results;
    // The slot may have been evicted or cleared while the layer
    // executed; only a record of a slot still in the table joins the
    // byte accounting.
    const auto it = slots_.find(key);
    if (it != slots_.end() && it->second == slot) {
        const std::uint64_t bytes = recordBytes(spec, results->size());
        slot->record_bytes += bytes;
        stats_.bytes += bytes;
        enforceBudgetLocked(key, attributed);
    }
    return results;
}

std::uint64_t
CompiledCache::recordBytes(const std::string& spec, std::size_t inputs)
{
    return sizeof(Record) + spec.size() + inputs * sizeof(RunResult);
}

void
CompiledCache::setByteBudget(std::uint64_t budget)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    budget_ = budget;
    enforceBudgetLocked("", nullptr);
}

void
CompiledCache::setDiskDir(const std::string& dir)
{
    Disk store = dir.empty() ? nullptr
                             : std::make_shared<const ArtifactStore>(dir);
    // Reclaim dead writers' leaked temp files while attaching; the
    // directory walk stays outside the lock so it cannot stall
    // concurrent getOrCompile traffic.
    const std::size_t swept = store ? store->sweepStaleTemps() : 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    disk_ = std::move(store);
    stats_.disk_tmp_swept += swept;
    // A different disk is a different failure domain: close the
    // breaker and start counting afresh.
    breaker_failures_ = 0;
    breaker_open_ = false;
    stats_.disk_degraded = 0;
}

void
CompiledCache::setDiskBreaker(std::uint64_t threshold,
                              double cooldown_ms)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    breaker_threshold_ = threshold;
    breaker_cooldown_ms_ = cooldown_ms;
    breaker_failures_ = 0;
    breaker_open_ = false;
    stats_.disk_degraded = 0;
}

void
CompiledCache::finishNetwork(const std::string& network)
{
    const std::string prefix = network + "#";
    const std::lock_guard<std::mutex> lock(mutex_);
    // Walk MRU to LRU, splicing matches in front of the previously
    // finished entries: the batch keeps its recency order and the
    // list's back stays the oldest finished entry, evicted first.
    // splice() moves list nodes, so every slot's lru_it stays valid.
    const auto older = finished_lru_.begin();
    for (auto it = live_lru_.begin(); it != live_lru_.end();) {
        const auto next = std::next(it);
        if (it->compare(0, prefix.size(), prefix) == 0) {
            slots_.at(*it)->finished = true;
            finished_lru_.splice(older, live_lru_, it);
        }
        it = next;
    }
}

CompiledCache::Stats
CompiledCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
CompiledCache::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
    live_lru_.clear();
    finished_lru_.clear();
    // One reset for counters *and* gauges: entries/bytes go to zero
    // with the table, and any compile finishing after this point sees
    // its slot gone and skips the accounting entirely, so `bytes`
    // can never drift from the sum of resident artifacts.
    stats_ = Stats{};
    // The gauge reset above also cleared disk_degraded; keep the
    // breaker state consistent with it.
    breaker_failures_ = 0;
    breaker_open_ = false;
}

} // namespace loas
