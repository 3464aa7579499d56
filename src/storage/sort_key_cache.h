#ifndef HILLVIEW_STORAGE_SORT_KEY_CACHE_H_
#define HILLVIEW_STORAGE_SORT_KEY_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "storage/sort_key.h"
#include "util/single_flight_lru.h"

namespace hillview {

/// Worker-resident cache of materialized sort-key columns, the auxiliary
/// structure behind repeated scrolls and zooms of the same sorted view: the
/// first order-based sketch over a (table, order) pair pays the O(universe)
/// key-extraction pass, every later one reuses the vector (§5.4's
/// memoization argument applied below the summary level). Because keys cover
/// the whole universe independent of membership, filter-derived tables that
/// share their parent's columns hit the same entry — a zoom-in scroll reuses
/// the pre-zoom keys.
///
/// This is soft state in the §5.8 sense: Worker::Restart() (crash) and
/// Worker::EvictCaches() (memory manager) both Clear() it, and everything it
/// held is reconstructible by re-running SortKeyPlan::BuildKeys. Memory is
/// bounded by a byte budget (keys are 8 bytes × universe rows — entry counts
/// would be meaningless), evicting least-recently-used entries.
///
/// Entries are keyed by SortKeyPlan::CacheKey() — column object identity
/// plus direction and shape — and additionally hold weak references to the
/// key columns: an entry whose columns have been destroyed is dead, dropped
/// on lookup and swept on insert, so a recycled allocation can never be
/// served stale keys. (The key encodes each column's address, so a live
/// entry's columns are exactly the querying plan's.)
///
/// Built on SingleFlightLru with cost = key bytes: concurrent misses on the
/// same plan are *single-flight* through GetOrBuild() — the first thread
/// builds, later threads park and adopt the builder's vector instead of
/// re-running the O(n) key pass (the `coalesced_builds` counter observes
/// this). Raw Get/Put remain available and may still race benignly; the
/// second Put replaces the first with an identical vector. Thread-safe.
class SortKeyCache {
 public:
  using KeysPtr = SortKeyPlan::KeysPtr;

  /// Default byte budget: 128 MB ≈ keys for 16M rows × 8 hot views.
  static constexpr size_t kDefaultMaxBytes = 128u << 20;

  /// Observability snapshot. Everything but `encoding_hits` is read under
  /// one lock, so e.g. a hit total from before an eviction never appears
  /// next to an eviction total from after it.
  struct Stats {
    size_t entries = 0;
    size_t bytes_used = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Misses served by another thread's in-flight build instead of a second
    /// O(n) key pass.
    int64_t coalesced_builds = 0;
    /// Threads currently parked on an in-flight build (test observability).
    int64_t waiters = 0;
    /// Key misses that still skipped the O(n) encoding pre-passes (packed
    /// min/max scans) by adopting a snapshot from the encoding side-cache —
    /// the saving for views whose key vectors are too large to cache.
    int64_t encoding_hits = 0;
  };

  explicit SortKeyCache(size_t max_bytes = kDefaultMaxBytes);

  /// Cached keys for `plan`, or nullptr. On a hit the plan adopts the
  /// entry's encoding snapshot, so the caller skips both the key build *and*
  /// the O(n) encoding pre-passes.
  KeysPtr Get(SortKeyPlan& plan);

  /// Inserts (or replaces) the keys for `plan` (whose encodings must be
  /// finalized), evicting LRU entries beyond the byte budget. Vectors
  /// larger than the whole budget are not cached. `generation` is the value
  /// of generation() read before the key build: a Clear() in between (crash
  /// / memory-manager eviction racing an in-flight Summarize) invalidates
  /// the insert, so evicted state cannot sneak back into the budget.
  void Put(const SortKeyPlan& plan, KeysPtr keys, uint64_t generation);
  void Put(const SortKeyPlan& plan, KeysPtr keys);

  /// The single-flight consult path: cached keys if present; otherwise the
  /// first caller builds (when `build_allowed`) while concurrent callers
  /// for the same plan that would also have built wait and adopt the
  /// builder's result. Returns nullptr when nothing is cached and building
  /// is not allowed — without waiting on an in-flight build, because such
  /// callers (low-density scans) finish faster on the virtual comparator
  /// path than any O(universe) key pass they could wait for. A Clear()
  /// racing the build discards the insert as usual; waiters are still
  /// served from the in-flight slot and later callers rebuild. A build that
  /// throws releases the flight, and a waiter becomes the next builder.
  KeysPtr GetOrBuild(SortKeyPlan& plan, bool build_allowed);

  /// Drops everything (crash-restart / cache eviction, §5.8) and bumps the
  /// generation so racing Puts are discarded.
  void Clear();

  /// Monotone counter incremented by Clear(); read it before building keys
  /// and pass it to Put.
  uint64_t generation() const { return keys_.generation(); }

  /// Soft-state regression tests assert a repeat scroll hits and an
  /// eviction resets to a miss.
  Stats Snapshot() const;

  size_t max_bytes() const { return keys_.budget(); }

  /// Test hook: invoked by the building thread after it has been elected
  /// and before it starts the key pass, so a threaded test can hold the
  /// build open until waiters have parked (or make it throw). Set it before
  /// the cache is shared between threads.
  void SetInFlightHookForTest(std::function<void()> hook) {
    in_flight_hook_ = std::move(hook);
  }

 private:
  /// One cached view: its keys (null in the encoding side-cache), the
  /// finalized encodings, and liveness guards for the source columns.
  /// Shared immutably, so a hit copies one pointer.
  struct Entry {
    KeysPtr keys;
    SortKeyPlan::EncodingSnapshot encodings;
    std::vector<std::weak_ptr<const IColumn>> columns;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  static EntryPtr MakeEntry(const SortKeyPlan& plan, KeysPtr keys);
  /// False once any source column died.
  static bool Live(const EntryPtr& entry);

  /// Serves a lookup result into `plan`: the entry's keys and encodings, or
  /// on a miss an encoding snapshot from the side-cache. Returns the keys or
  /// nullptr.
  KeysPtr Serve(const std::string& key, const std::optional<EntryPtr>& found,
                SortKeyPlan& plan);

  /// Encoding snapshots are O(components) — a few dozen bytes — so they get
  /// their own side-cache outside the byte budget: even when a key vector is
  /// too large to cache (or was evicted), a rescan of the same very wide
  /// table skips the packed-transform min/max pre-passes. Capped by entry
  /// count. Cleared together with keys_, so the two generations move in
  /// lockstep and one generation value fences both.
  static constexpr size_t kMaxEncodingEntries = 256;

  SingleFlightLru<EntryPtr> keys_;
  SingleFlightLru<EntryPtr> encodings_;
  std::function<void()> in_flight_hook_;
};

/// The one cache-consult sequence shared by every keyed sketch path:
/// cached keys if present (free regardless of density), else a
/// single-flight build when `build_allowed` (the caller's density gate) —
/// concurrent misses on the same plan coalesce on one builder instead of
/// each running the O(n) key pass. `cache` may be null (tests, benches,
/// standalone callers); the plan is then built directly when allowed.
inline SortKeyPlan::KeysPtr GetOrBuildKeys(SortKeyCache* cache,
                                           SortKeyPlan& plan,
                                           bool build_allowed) {
  if (!plan.valid()) return nullptr;
  if (cache == nullptr) {
    return build_allowed ? plan.BuildKeys() : nullptr;
  }
  return cache->GetOrBuild(plan, build_allowed);
}

}  // namespace hillview

#endif  // HILLVIEW_STORAGE_SORT_KEY_CACHE_H_
