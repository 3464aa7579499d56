#ifndef HILLVIEW_CORE_COMPUTATION_CACHE_H_
#define HILLVIEW_CORE_COMPUTATION_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "core/any_sketch.h"
#include "util/single_flight_lru.h"

namespace hillview {

/// Cache of sketch results, "indexed by what mergeable summary was used and
/// what dataset was operated on" (§5.4). Summaries are tiny by construction,
/// so a large number can be cached; eviction is LRU. Only deterministic
/// sketches should be cached (randomized ones are keyed with their seed via
/// the sketch name, so caching them is safe but rarely useful).
///
/// A SingleFlightLru with cost 1 per entry: multi-tenant sharing happens
/// through its single-flight protocol. When N sessions race the same key
/// (GetOrBeginCompute), exactly one becomes the flight owner and computes;
/// the others park and adopt its result (`coalesced_hits`). An owner that
/// settles WITHOUT publishing a value — degraded coverage, cancellation, an
/// error — releases the flight empty and the waiters re-elect a new owner,
/// so a partial result is never served across sessions and a cancelled
/// winner never starves the losers. Clear() also fences out the results of
/// flights that began before it.
///
/// Thread-safe; Snapshot() reads every counter under one lock.
class ComputationCache {
 public:
  /// One consistent observability snapshot, taken under the lock.
  struct Stats {
    size_t entries = 0;
    int64_t hits = 0;
    /// Get() misses plus flight-owner elections.
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Waiters that adopted another caller's in-flight result instead of
    /// recomputing (cross-session single-flight sharing).
    int64_t coalesced_hits = 0;
  };

  /// Ownership of one computation; see SingleFlightLru::Flight.
  using Flight = SingleFlightLru<AnySummary>::Flight;

  explicit ComputationCache(size_t max_entries = 4096) : lru_(max_entries) {}

  /// Cache key for one seeded run. Sketch names do not always encode the
  /// seed (e.g. SampledHistogramSketch), so the seed must be part of the key
  /// or a cached randomized summary could be served for a different seed.
  static std::string Key(const std::string& dataset_id,
                         const std::string& sketch_name, uint64_t seed) {
    return dataset_id + "#" + sketch_name + "@" + std::to_string(seed);
  }

  std::optional<AnySummary> Get(const std::string& key) {
    return lru_.Get(key);
  }

  void Put(const std::string& key, AnySummary summary) {
    lru_.Insert(key, std::move(summary));
  }

  /// Single-flight lookup. Outcomes:
  ///   - cached value present: returns it (a hit).
  ///   - miss, no flight for this key: the caller is elected owner (returns
  ///     nullopt, `*flight` owns the flight). Publishing a full-coverage
  ///     result through it serves the cache and every waiter; dropping it
  ///     unpublished, on any path, releases the flight empty.
  ///   - miss, flight in progress: parks until the owner settles; a
  ///     published value is adopted (*coalesced = true), an empty settle
  ///     loops to re-elect — possibly making this caller the new owner.
  std::optional<AnySummary> GetOrBeginCompute(const std::string& key,
                                              Flight* flight,
                                              bool* coalesced = nullptr) {
    auto found = lru_.GetOrBegin(key);
    if (coalesced != nullptr) *coalesced = found.coalesced;
    *flight = std::move(found.flight);
    return std::move(found.value);
  }

  void Clear() { lru_.Clear(); }

  Stats Snapshot() const {
    const auto s = lru_.Snapshot();
    return Stats{s.entries, s.hits, s.misses + s.elections, s.evictions,
                 s.coalesced};
  }

 private:
  SingleFlightLru<AnySummary> lru_;
};

}  // namespace hillview

#endif  // HILLVIEW_CORE_COMPUTATION_CACHE_H_
