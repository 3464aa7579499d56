#ifndef HILLVIEW_CLUSTER_REMOTE_DATASET_H_
#define HILLVIEW_CLUSTER_REMOTE_DATASET_H_

#include <functional>
#include <memory>
#include <string>

#include "cluster/network.h"
#include "cluster/worker.h"
#include "cluster/worker_health.h"
#include "core/dataset.h"

namespace hillview {
namespace cluster {

/// Root-side proxy for a dataset hosted on one worker: the machine-boundary
/// edge of the execution tree (Fig 1). Every partial summary crossing this
/// edge is serialized with the sketch's wire format, checksummed, charged to
/// the SimulatedNetwork, and deserialized on the other side — so byte
/// accounting and wire-format round-trips are faithful even though both
/// "machines" share a process.
///
/// The reference is soft (§5.7). When the worker no longer has the dataset
/// (it restarted), the edge heals it on the spot: `heal` (the session's
/// redo-log replay for this one worker) reinstalls the dataset, and the
/// attempt runs on the copy it returns, so a restart that lands after the
/// heal cannot take the dataset away mid-attempt. Only a dataset the log
/// cannot rebuild completes Unavailable.
///
/// Fault handling (options.rpc): each attempt is bounded by a deadline — a
/// leaf that produced no final summary in time completes kDeadlineExceeded —
/// and deadline misses are retried here with capped exponential backoff and
/// deterministic seeded jitter, which is safe because sketches are pure
/// functions of (data, seed). Transport losses (dropped requests, dropped or
/// corrupted summaries) surface as deadline misses and heal the same way.
///
/// When constructed with a WorkerHealth tracker, the proxy consults the
/// circuit breaker before each RPC (fast-failing Unavailable while the
/// breaker is open) and reports each RPC's terminal outcome back.
class RemoteDataSet final : public IDataSet {
 public:
  /// Returns this worker's copy of dataset `id`, first rebuilding it if the
  /// worker lost it. It may run on any thread after the query that built the
  /// proxy returned, so it must own (or share) everything it touches.
  using Heal = std::function<Result<DataSetPtr>(const std::string& id)>;

  RemoteDataSet(WorkerPtr worker, std::string dataset_id,
                SimulatedNetwork* network, int worker_index,
                WorkerHealth* health, Heal heal)
      : worker_(std::move(worker)),
        dataset_id_(std::move(dataset_id)),
        id_("remote:" + worker_->name() + "/" + dataset_id_),
        network_(network),
        worker_index_(worker_index),
        health_(health),
        heal_(std::move(heal)) {}

  const std::string& id() const override { return id_; }

  StreamPtr<PartialResult<AnySummary>> RunSketch(
      const AnySketch& sketch, const SketchOptions& options) override;

  /// Remote map: instructs the worker to derive a new dataset (without
  /// healing a missing parent); returns a proxy to it. The map closure
  /// crossing the boundary is charged a nominal request size (closures are
  /// code, not data).
  DataSetPtr Map(TableMap map, const std::string& op_name) override;

  /// The worker's partition count for the dataset, healing it first if it
  /// is missing; 1 only when it cannot be rebuilt.
  int NumPartitions() const override;

  void Evict() override { worker_->EvictCaches(); }

 private:
  WorkerPtr worker_;
  std::string dataset_id_;
  std::string id_;
  SimulatedNetwork* network_;
  int worker_index_;       // channel id for fault injection
  WorkerHealth* health_;   // root's breaker; may be null (no gating)
  Heal heal_;
};

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_REMOTE_DATASET_H_
