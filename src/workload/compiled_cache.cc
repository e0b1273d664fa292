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
CompiledCache::enforceBudgetLocked(const std::string& protect)
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
        ++stats_.evictions;
    }
}

bool
CompiledCache::diskAllowedLocked() const
{
    if (!breaker_open_)
        return true;
    // Half-open: one request past the cooldown probes the disk again.
    return std::chrono::steady_clock::now() >= breaker_retry_at_;
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
    ++stats_.disk_trips;
    stats_.disk_degraded = 1;
    if (attributed)
        ++attributed->disk_trips;
}

std::shared_ptr<const CompiledLayer>
CompiledCache::getOrCompile(const std::string& key,
                            const Compile& compile, Stats* attributed,
                            const std::function<void()>& on_miss)
{
    std::shared_ptr<Slot> slot;
    std::shared_ptr<const ArtifactStore> disk;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto& entry = slots_[key];
        if (!entry)
            entry = std::make_shared<Slot>();
        slot = entry;
        // An open breaker holds the whole request memory-only: no
        // load, no store, until the half-open probe closes it again.
        if (disk_ && diskAllowedLocked())
            disk = disk_;
    }

    // The slot mutex makes the fill once-only: the first caller loads
    // or compiles while any concurrent caller for the same key blocks
    // here, wakes to a filled slot, and counts a hit.
    const std::lock_guard<std::mutex> slot_lock(slot->mutex);
    if (slot->value) {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.hits;
        if (attributed)
            ++attributed->hits;
        touchLocked(key, *slot);
        return slot->value;
    }

    // Disk level: a validated file is as good as a compile and far
    // cheaper; a rejected one (corrupt, stale version, collision)
    // falls through to recompile-and-overwrite.
    bool disk_rejected = false;
    bool disk_io_error = false;
    if (disk) {
        ArtifactStore::LoadResult loaded = disk->load(key);
        disk_rejected = loaded.rejected;
        disk_io_error = loaded.io_error;
        if (loaded.layer) {
            slot->value = std::move(loaded.layer);
            const std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.disk_hits;
            if (attributed)
                ++attributed->disk_hits;
            recordDiskOutcomeLocked(true, attributed);
            // The slot may have been dropped by clear() while the
            // file was read; only a slot still in the table joins
            // the accounting and the LRU.
            const auto it = slots_.find(key);
            if (it != slots_.end() && it->second == slot) {
                if (fault::shouldFail(fault::Site::CacheInsert)) {
                    // Injected insert failure: serve the artifact
                    // but do not retain it — the next request for
                    // this key loads or compiles afresh.
                    slots_.erase(it);
                } else {
                    const std::uint64_t evicted_before =
                        stats_.evictions;
                    insertAccountedLocked(key, *slot);
                    enforceBudgetLocked(key);
                    if (attributed)
                        attributed->evictions +=
                            stats_.evictions - evicted_before;
                }
            }
            return slot->value;
        }
    }

    if (on_miss)
        on_miss();
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    slot->value = std::make_shared<const CompiledLayer>(compile());
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();

    bool persisted = false;
    if (disk)
        persisted = disk->store(key, *slot->value);

    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    stats_.compile_ms += ms;
    if (disk_rejected)
        ++stats_.disk_rejects;
    if (persisted)
        ++stats_.disk_writes;
    if (attributed) {
        ++attributed->misses;
        attributed->compile_ms += ms;
        if (disk_rejected)
            ++attributed->disk_rejects;
        if (persisted)
            ++attributed->disk_writes;
    }
    // Feed the breaker: a failed read (I/O, not data) and the store's
    // outcome each count. Data rejections stay out of it — a stale
    // format version must overwrite, not disable the disk level.
    if (disk) {
        if (disk_io_error)
            recordDiskOutcomeLocked(false, attributed);
        recordDiskOutcomeLocked(persisted, attributed);
    }
    const auto it = slots_.find(key);
    if (it != slots_.end() && it->second == slot) {
        if (fault::shouldFail(fault::Site::CacheInsert)) {
            // Injected insert failure: serve the artifact but do not
            // retain it — the next request for this key recompiles.
            slots_.erase(it);
        } else {
            const std::uint64_t evicted_before = stats_.evictions;
            insertAccountedLocked(key, *slot);
            enforceBudgetLocked(key);
            if (attributed)
                attributed->evictions +=
                    stats_.evictions - evicted_before;
        }
    }
    return slot->value;
}

std::shared_ptr<const LayerResults>
CompiledCache::getOrExecute(const std::string& key, const std::string& spec,
                            const Execute& execute, Stats* attributed)
{
    std::shared_ptr<Slot> slot;
    std::shared_ptr<Record> record;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(key);
        if (it != slots_.end() && it->second->accounted) {
            slot = it->second;
            auto& entry = slot->records[spec];
            if (!entry)
                entry = std::make_shared<Record>();
            record = entry;
        }
    }
    if (!record)
        return std::make_shared<const LayerResults>(execute());

    // Like the slot mutex for a compile: the first caller executes
    // while concurrent callers for the same (key, spec) block here,
    // wake to a filled record, and count a result hit.
    const std::lock_guard<std::mutex> record_lock(record->mutex);
    if (record->results) {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.result_hits;
        if (attributed)
            ++attributed->result_hits;
        return record->results;
    }
    record->results = std::make_shared<const LayerResults>(execute());

    // The slot may have been evicted or cleared while the layer
    // executed; only a record of a slot still in the table joins the
    // byte accounting.
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    if (it != slots_.end() && it->second == slot) {
        const std::uint64_t bytes =
            recordBytes(spec, record->results->size());
        slot->record_bytes += bytes;
        stats_.bytes += bytes;
        const std::uint64_t evicted_before = stats_.evictions;
        enforceBudgetLocked(key);
        if (attributed)
            attributed->evictions += stats_.evictions - evicted_before;
    }
    return record->results;
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
    enforceBudgetLocked("");
}

void
CompiledCache::setDiskDir(const std::string& dir)
{
    std::shared_ptr<const ArtifactStore> store =
        dir.empty() ? nullptr
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
