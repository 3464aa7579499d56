#include "storage/sort_key_cache.h"

#include <utility>

namespace hillview {

SortKeyCache::SortKeyCache(size_t max_bytes)
    : keys_(
          max_bytes,
          [](const EntryPtr& entry) {
            return entry->keys->size() * sizeof(uint64_t);
          },
          Live),
      encodings_(kMaxEncodingEntries, nullptr, Live) {}

bool SortKeyCache::Live(const EntryPtr& entry) {
  for (const auto& column : entry->columns) {
    if (column.expired()) return false;
  }
  return true;
}

SortKeyCache::EntryPtr SortKeyCache::MakeEntry(const SortKeyPlan& plan,
                                               KeysPtr keys) {
  return std::make_shared<const Entry>(
      Entry{std::move(keys), plan.encodings(),
            std::vector<std::weak_ptr<const IColumn>>(
                plan.key_columns().begin(), plan.key_columns().end())});
}

SortKeyCache::KeysPtr SortKeyCache::Serve(const std::string& key,
                                          const std::optional<EntryPtr>& found,
                                          SortKeyPlan& plan) {
  if (found.has_value()) {
    plan.AdoptEncodings((*found)->encodings);
    return (*found)->keys;
  }
  if (auto snapshot = encodings_.Get(key)) {
    plan.AdoptEncodings((*snapshot)->encodings);
  }
  return nullptr;
}

SortKeyCache::KeysPtr SortKeyCache::Get(SortKeyPlan& plan) {
  if (!plan.valid()) return nullptr;
  const std::string key = plan.CacheKey();
  return Serve(key, keys_.Get(key), plan);
}

void SortKeyCache::Put(const SortKeyPlan& plan, KeysPtr keys,
                       uint64_t generation) {
  if (!plan.valid() || !plan.encodings_ready() || keys == nullptr) return;
  const std::string key = plan.CacheKey();
  // The encodings are worth keeping even when the keys are not cacheable:
  // later scans of the same view then skip the packed min/max pre-passes.
  encodings_.Insert(key, MakeEntry(plan, nullptr), generation);
  keys_.Insert(key, MakeEntry(plan, std::move(keys)), generation);
}

void SortKeyCache::Put(const SortKeyPlan& plan, KeysPtr keys) {
  Put(plan, std::move(keys), generation());
}

SortKeyCache::KeysPtr SortKeyCache::GetOrBuild(SortKeyPlan& plan,
                                               bool build_allowed) {
  if (!plan.valid()) return nullptr;
  const std::string key = plan.CacheKey();
  // Callers whose density gate said "don't build" never park on another
  // thread's build: for them (a low-rate sample over a huge partition) the
  // cheap comparator sort finishes long before an O(universe) key pass
  // would, so parking would be a latency regression, not a saving.
  auto found = keys_.GetOrBegin(key, /*may_wait=*/build_allowed);
  KeysPtr keys = Serve(key, found.value, plan);
  if (keys != nullptr || !found.flight.owner()) return keys;
  // This thread is the elected builder; the key pass runs unlocked. If it
  // throws, the flight handle releases the flight on the way out.
  if (in_flight_hook_) in_flight_hook_();
  keys = plan.BuildKeys();
  encodings_.Insert(key, MakeEntry(plan, nullptr), found.flight.generation());
  found.flight.Publish(MakeEntry(plan, keys));
  return keys;
}

void SortKeyCache::Clear() {
  keys_.Clear();
  encodings_.Clear();
}

SortKeyCache::Stats SortKeyCache::Snapshot() const {
  const auto keys = keys_.Snapshot();
  Stats stats;
  stats.entries = keys.entries;
  stats.bytes_used = keys.cost;
  // A waiter that adopts an in-flight build counts its first-lookup miss
  // and then a hit.
  stats.hits = keys.hits + keys.coalesced;
  stats.misses = keys.misses + keys.flight_misses;
  stats.evictions = keys.evictions;
  stats.coalesced_builds = keys.coalesced;
  stats.waiters = keys.waiters;
  stats.encoding_hits = encodings_.Snapshot().hits;
  return stats;
}

}  // namespace hillview
