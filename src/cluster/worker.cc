#include "cluster/worker.h"

namespace hillview {
namespace cluster {

DataSetPtr Worker::MakeBase(const std::string& dataset_id,
                            std::vector<DataSetPtr> partitions) {
  return std::make_shared<ParallelDataSet>(
      name_ + "/" + dataset_id, std::move(partitions), &pool_, aggregation_);
}

DataSetPtr Worker::Install(const std::string& dataset_id, DataSetPtr dataset,
                           bool replace) {
  MutexLock lock(mutex_);
  DataSetPtr& slot = datasets_[dataset_id];
  if (slot == nullptr || replace) slot = std::move(dataset);
  return slot;
}

Result<DataSetPtr> Worker::GetDataSet(const std::string& dataset_id) {
  MutexLock lock(mutex_);
  auto it = datasets_.find(dataset_id);
  if (it == datasets_.end()) {
    return Status::Unavailable("worker " + name_ + ": no dataset '" +
                               dataset_id + "'");
  }
  return it->second;
}

void Worker::Restart() {
  // "Restarting the node after a failure is equivalent to deleting all
  // cached datasets" (§5.8) — and all derived auxiliary structures with
  // them: the sort-key cache is soft state too.
  key_cache_.Clear();
  MutexLock lock(mutex_);
  datasets_.clear();
  ++restart_count_;
}

void Worker::EvictCaches() {
  // The memory-manager eviction path drops every reconstructible byte the
  // worker holds: materialized tables and the sort-key columns derived from
  // them (which would otherwise pin freed tables' key vectors uselessly).
  key_cache_.Clear();
  MutexLock lock(mutex_);
  for (auto& [id, dataset] : datasets_) dataset->Evict();
}

int64_t Worker::restart_count() const {
  MutexLock lock(mutex_);
  return restart_count_;
}

void Worker::RecordDroppedMapFailure(const Status& status) {
  MutexLock lock(mutex_);
  ++dropped_map_failures_;
  last_dropped_map_error_ = status.ToString();
}

int64_t Worker::dropped_map_failures() const {
  MutexLock lock(mutex_);
  return dropped_map_failures_;
}

std::string Worker::last_dropped_map_error() const {
  MutexLock lock(mutex_);
  return last_dropped_map_error_;
}

void Worker::RecordCorruptMessageDropped() {
  MutexLock lock(mutex_);
  ++corrupt_messages_dropped_;
}

int64_t Worker::corrupt_messages_dropped() const {
  MutexLock lock(mutex_);
  return corrupt_messages_dropped_;
}

}  // namespace cluster
}  // namespace hillview
