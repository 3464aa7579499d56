#ifndef HILLVIEW_UTIL_SINGLE_FLIGHT_LRU_H_
#define HILLVIEW_UTIL_SINGLE_FLIGHT_LRU_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/thread_annotations.h"

namespace hillview {

/// String-keyed LRU cache with single-flight fills: the one implementation
/// behind the root's ComputationCache and the workers' SortKeyCache, both
/// soft state in the §5.8 sense.
///
/// Budget: every value has a cost (1, or what the `cost` function returns)
/// counted against `budget`; an insert evicts least-recently-used entries
/// until the total fits. A value costing more than the whole budget is never
/// inserted — it would evict everything else for one entry.
///
/// Liveness: an optional `live` predicate marks values that must no longer
/// be served (e.g. their source columns died). A lookup that finds a dead
/// entry drops it and misses; every fresh insert sweeps the dead entries
/// out of the budget.
///
/// Single flight: GetOrBegin() on a miss elects the caller owner of the
/// key's flight and hands it a Flight handle; concurrent GetOrBegin() calls
/// for the key park until the owner settles. Publish() inserts the value and
/// hands it to every parked waiter from the flight slot — so waiters are
/// served even when the value is oversize or a Clear() fenced the insert
/// out. A flight settled empty (the handle dropped without Publish, on any
/// return path or exception unwind) wakes the waiters to re-elect: one of
/// them becomes the next owner. A caller that may not wait never parks and
/// is never elected; it gets the cached value or nothing.
///
/// Clear() drops every entry and bumps the generation. An insert carries
/// the generation read before its value was built (a flight records it at
/// election), and a stale one is dropped, so state evicted by Clear() cannot
/// sneak back into the budget. Flights survive Clear().
///
/// Thread-safe: one capability-annotated mutex guards the map, the LRU
/// list, the flight table and every counter; Snapshot() reads them all under
/// it. Values are returned by copy, so V should be cheap to copy (a handle).
template <typename V>
class SingleFlightLru {
 public:
  using CostFn = std::function<size_t(const V&)>;
  using LiveFn = std::function<bool(const V&)>;

  /// Sizes and event counters, read under one lock. Each cache derives its
  /// own hit/miss accounting from these events.
  struct Stats {
    size_t entries = 0;
    size_t cost = 0;  // summed cost of the entries
    int64_t hits = 0;  // lookups served from the cache
    int64_t misses = 0;  // Get() calls that found nothing
    /// GetOrBegin() calls whose first lookup found nothing.
    int64_t flight_misses = 0;
    int64_t elections = 0;  // flights begun
    int64_t coalesced = 0;  // waiters served from another caller's flight
    int64_t evictions = 0;  // entries dropped over budget or as dead
    int64_t waiters = 0;  // callers parked on a flight right now
  };

 private:
  /// One flight's outcome. Guarded by the owning cache's mutex_ (the
  /// analysis cannot express a guard across objects; every access sits in a
  /// locked scope of this class).
  struct Slot {
    bool done = false;
    std::optional<V> value;
  };

 public:
  /// Ownership of one flight. Settles the flight exactly once: Publish()
  /// with a value, otherwise empty when the handle is destroyed or
  /// overwritten. A default-constructed (or moved-from) handle owns nothing.
  /// Must not outlive the cache.
  class Flight {
   public:
    Flight() = default;
    Flight(Flight&& other) noexcept { *this = std::move(other); }
    Flight& operator=(Flight&& other) noexcept {
      if (this != &other) {
        Settle(std::nullopt);
        cache_ = std::exchange(other.cache_, nullptr);
        key_ = std::move(other.key_);
        slot_ = std::move(other.slot_);
        generation_ = other.generation_;
      }
      return *this;
    }
    Flight(const Flight&) = delete;
    Flight& operator=(const Flight&) = delete;
    ~Flight() { Settle(std::nullopt); }

    /// True while this handle owns an unsettled flight.
    bool owner() const { return cache_ != nullptr; }

    /// The cache generation read at election; fences inserts derived from
    /// the same build.
    uint64_t generation() const { return generation_; }

    /// Inserts `value` (unless fenced or oversize) and hands it to every
    /// waiter. A no-op on a handle that owns nothing.
    void Publish(V value) { Settle(std::move(value)); }

   private:
    friend class SingleFlightLru;
    Flight(SingleFlightLru* cache, std::string key, std::shared_ptr<Slot> slot,
           uint64_t generation)
        : cache_(cache),
          key_(std::move(key)),
          slot_(std::move(slot)),
          generation_(generation) {}

    void Settle(std::optional<V> value) {
      if (cache_ == nullptr) return;
      std::exchange(cache_, nullptr)
          ->Finish(key_, *slot_, generation_, std::move(value));
    }

    SingleFlightLru* cache_ = nullptr;
    std::string key_;
    std::shared_ptr<Slot> slot_;
    uint64_t generation_ = 0;
  };

  /// GetOrBegin()'s outcome: a value (cached, or adopted from another
  /// caller's flight when `coalesced`), or an owning `flight` when elected,
  /// or neither when the caller may not wait.
  struct Lookup {
    std::optional<V> value;
    bool coalesced = false;
    Flight flight;
  };

  explicit SingleFlightLru(size_t budget, CostFn cost = nullptr,
                           LiveFn live = nullptr)
      : budget_(budget), cost_(std::move(cost)), live_(std::move(live)) {}

  SingleFlightLru(const SingleFlightLru&) = delete;
  SingleFlightLru& operator=(const SingleFlightLru&) = delete;

  /// The live cached value for `key`, or nullopt (a miss). Never parks.
  std::optional<V> Get(const std::string& key) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    std::optional<V> hit = FindLocked(key);
    if (!hit.has_value()) ++misses_;
    return hit;
  }

  /// Single-flight lookup: a cached value, else (when `may_wait`) the value
  /// of the key's flight in progress, else election as the new owner.
  /// Parks while another caller owns the flight; an empty settle loops, and
  /// this caller may be elected next.
  Lookup GetOrBegin(const std::string& key, bool may_wait = true)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    Lookup out;
    for (bool first = true;; first = false) {
      out.value = FindLocked(key);
      if (out.value.has_value()) return out;
      if (first) ++flight_misses_;
      if (!may_wait) return out;
      auto it = flights_.find(key);
      if (it == flights_.end()) {
        auto slot = std::make_shared<Slot>();
        flights_.emplace(key, slot);
        ++elections_;
        out.flight = Flight(this, key, std::move(slot), generation_);
        return out;
      }
      std::shared_ptr<Slot> slot = it->second;
      ++waiters_;
      while (!slot->done) cv_.Wait(mutex_);
      --waiters_;
      if (slot->value.has_value()) {
        ++coalesced_;
        out.value = slot->value;
        out.coalesced = true;
        return out;
      }
    }
  }

  /// Inserts or replaces `key` unconditionally.
  void Insert(const std::string& key, V value) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    InsertLocked(key, std::move(value));
  }

  /// Inserts or replaces `key` unless a Clear() happened since `generation`
  /// was read.
  void Insert(const std::string& key, V value, uint64_t generation)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (generation == generation_) InsertLocked(key, std::move(value));
  }

  /// Drops every entry and fences out inserts begun before the call.
  void Clear() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    entries_.clear();
    lru_.clear();
    cost_used_ = 0;
    ++generation_;
  }

  /// Incremented by every Clear(); read it before building a value and
  /// pass it to Insert.
  uint64_t generation() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return generation_;
  }

  Stats Snapshot() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return Stats{entries_.size(), cost_used_,  hits_,      misses_,
                 flight_misses_,  elections_,  coalesced_, evictions_,
                 waiters_};
  }

  size_t budget() const { return budget_; }

 private:
  struct Entry {
    V value;
    size_t cost = 0;
    typename std::list<std::string>::iterator lru_position;
  };
  using EntryMap = std::unordered_map<std::string, Entry>;

  /// Settles a flight: unregisters it, inserts a value under the
  /// generation fence, and wakes the waiters.
  void Finish(const std::string& key, Slot& slot, uint64_t generation,
              std::optional<V> value) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    flights_.erase(key);
    if (value.has_value() && generation == generation_) {
      InsertLocked(key, *value);
    }
    slot.value = std::move(value);
    slot.done = true;
    cv_.NotifyAll();
  }

  /// The live entry's value, touched as most recent (a hit); a dead entry
  /// is dropped.
  std::optional<V> FindLocked(const std::string& key) REQUIRES(mutex_) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    if (live_ && !live_(it->second.value)) {
      EraseLocked(it);
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    ++hits_;
    return it->second.value;
  }

  void InsertLocked(const std::string& key, V value) REQUIRES(mutex_) {
    const size_t cost = cost_ ? cost_(value) : 1;
    if (cost > budget_) return;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      cost_used_ = cost_used_ - it->second.cost + cost;
      it->second.value = std::move(value);
      it->second.cost = cost;
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    } else {
      lru_.push_front(key);
      entries_.emplace(key, Entry{std::move(value), cost, lru_.begin()});
      cost_used_ += cost;
      if (live_) {
        for (auto dead = entries_.begin(); dead != entries_.end();) {
          dead = live_(dead->second.value) ? std::next(dead)
                                           : EraseLocked(dead);
        }
      }
    }
    while (cost_used_ > budget_ && !lru_.empty()) {
      EraseLocked(entries_.find(lru_.back()));
    }
  }

  typename EntryMap::iterator EraseLocked(typename EntryMap::iterator it)
      REQUIRES(mutex_) {
    cost_used_ -= it->second.cost;
    lru_.erase(it->second.lru_position);
    ++evictions_;
    return entries_.erase(it);
  }

  const size_t budget_;
  const CostFn cost_;
  const LiveFn live_;
  mutable Mutex mutex_;
  CondVar cv_;
  EntryMap entries_ GUARDED_BY(mutex_);
  std::list<std::string> lru_ GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<std::string, std::shared_ptr<Slot>> flights_
      GUARDED_BY(mutex_);
  size_t cost_used_ GUARDED_BY(mutex_) = 0;
  uint64_t generation_ GUARDED_BY(mutex_) = 0;
  int64_t hits_ GUARDED_BY(mutex_) = 0;
  int64_t misses_ GUARDED_BY(mutex_) = 0;
  int64_t flight_misses_ GUARDED_BY(mutex_) = 0;
  int64_t elections_ GUARDED_BY(mutex_) = 0;
  int64_t coalesced_ GUARDED_BY(mutex_) = 0;
  int64_t evictions_ GUARDED_BY(mutex_) = 0;
  int64_t waiters_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hillview

#endif  // HILLVIEW_UTIL_SINGLE_FLIGHT_LRU_H_
