#ifndef HILLVIEW_CORE_REDO_LOG_H_
#define HILLVIEW_CORE_REDO_LOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hillview {

/// One logged root operation: enough to re-execute the query that produced a
/// dataset or summary after a failure (§5.7–5.8). The seed makes randomized
/// vizketches replay deterministically.
struct RedoLogEntry {
  int64_t index = 0;
  std::string kind;         // "load", "map", "filter", "sketch", ...
  std::string description;  // operation parameters, human readable
  uint64_t seed = 0;
};

/// The root node's redo log — "the only persistent data structure maintained
/// by Hillview" (§5.7). Entries that produce a dataset carry a per-worker
/// builder keyed by the dataset id, used for lazy replay: when one worker's
/// copy of a dataset turns out to be gone, Rebuild re-executes only the
/// operation that produced it, on that worker, recursing through the parents
/// until data is re-read from the repository.
///
/// Thread-safe: entries, builders and counters are guarded by one annotated
/// mutex; Rebuild copies the builder out and runs it unlocked (builders of
/// derived datasets re-enter Rebuild for their parent).
class RedoLog {
 public:
  /// Builds worker `worker`'s copy of the dataset an entry produces.
  using Builder = std::function<Result<DataSetPtr>(int worker)>;

  /// Replay observability, read atomically under the lock (like the caches'
  /// Snapshot): how many rebuilds lazy healing started (recursive parent
  /// rebuilds included), how many builders it ran to completion, and how
  /// many rebuilds failed.
  struct Stats {
    int64_t entries = 0;
    int64_t replays_started = 0;
    int64_t replays_failed = 0;
    int64_t entries_replayed = 0;
  };

  /// Appends an entry; returns its index. An entry that produces a dataset
  /// names it in `produces` and passes its builder; a later producer of the
  /// same id supersedes an earlier one.
  int64_t Append(std::string kind, std::string description, uint64_t seed,
                 const std::string& produces = {}, Builder builder = nullptr)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    RedoLogEntry entry;
    entry.index = static_cast<int64_t>(entries_.size());
    entry.kind = std::move(kind);
    entry.description = std::move(description);
    entry.seed = seed;
    entries_.push_back(entry);
    if (builder) builders_[produces] = std::move(builder);
    return entry.index;
  }

  /// Lazy replay (§5.7): rebuilds worker `worker`'s copy of dataset `id` by
  /// running the newest builder logged for it. Unavailable when nothing in
  /// the log produces `id`; a failing builder's status propagates.
  Result<DataSetPtr> Rebuild(const std::string& id, int worker)
      EXCLUDES(mutex_) {
    Builder builder;
    {
      MutexLock lock(mutex_);
      auto it = builders_.find(id);
      if (it == builders_.end()) {
        return Status::Unavailable("redo log: nothing produces '" + id + "'");
      }
      builder = it->second;
      ++replays_started_;
    }
    Result<DataSetPtr> built = builder(worker);
    MutexLock lock(mutex_);
    if (built.ok()) {
      ++entries_replayed_;
    } else {
      ++replays_failed_;
    }
    return built;
  }

  int64_t Size() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return static_cast<int64_t>(entries_.size());
  }

  std::vector<RedoLogEntry> Entries() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return entries_;
  }

  /// Renders the log as text ("<index> <kind> seed=<seed> <description>"),
  /// the persisted form.
  std::string ToText() const EXCLUDES(mutex_);

  /// All replay counters plus the entry count, read atomically.
  Stats Snapshot() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return Stats{static_cast<int64_t>(entries_.size()), replays_started_,
                 replays_failed_, entries_replayed_};
  }

 private:
  mutable Mutex mutex_;
  std::vector<RedoLogEntry> entries_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, Builder> builders_ GUARDED_BY(mutex_);
  int64_t replays_started_ GUARDED_BY(mutex_) = 0;
  int64_t replays_failed_ GUARDED_BY(mutex_) = 0;
  int64_t entries_replayed_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hillview

#endif  // HILLVIEW_CORE_REDO_LOG_H_
