#include "cluster/root.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "util/random.h"

namespace hillview {
namespace cluster {

namespace {

/// Query-level backoff before transport retry `retry` (1-based): capped
/// exponential scaled by deterministic seeded jitter in [0.5, 1.0)x — the
/// same shape as the per-RPC backoff, one level up.
double QueryBackoffMs(const SketchOptions::RpcPolicy& rpc, uint64_t seed,
                      int retry) {
  double ms = rpc.backoff_base_ms;
  for (int i = 1; i < retry; ++i) ms *= 2.0;
  ms = std::min(ms, rpc.backoff_cap_ms);
  Random rng(MixSeed(MixSeed(seed, 0x9e3779b97f4a7c15ULL),
                     static_cast<uint64_t>(retry)));
  return ms * (0.5 + 0.5 * rng.NextDouble());
}

/// Worker w's copy of `id`. If the worker lost it, lazy replay (§5.7)
/// rebuilds just that copy from the log and installs it unless a racing
/// healer installed one first; `heals` (may be null) counts the rebuild.
Result<DataSetPtr> GetOrHeal(RedoLog& log, const WorkerPtr& worker, int w,
                             const std::string& id, std::atomic<int>* heals) {
  Result<DataSetPtr> present = worker->GetDataSet(id);
  if (present.ok()) return present;
  HV_ASSIGN_OR_RETURN(DataSetPtr built, log.Rebuild(id, w));
  if (heals != nullptr) heals->fetch_add(1);
  return worker->Install(id, std::move(built), /*replace=*/false);
}

/// First execution of a logged operation: runs its builder once per worker
/// and installs each copy over whatever the worker holds under `id`.
Status BuildEverywhere(const std::vector<WorkerPtr>& workers,
                       const std::string& id, const RedoLog::Builder& build) {
  for (size_t w = 0; w < workers.size(); ++w) {
    HV_ASSIGN_OR_RETURN(DataSetPtr built, build(static_cast<int>(w)));
    workers[w]->Install(id, std::move(built), /*replace=*/true);
  }
  return Status::OK();
}

}  // namespace

Status RootSession::LoadDataSet(
    const std::string& dataset_id,
    std::vector<LocalDataSet::Loader> partition_loaders) {
  const std::vector<WorkerPtr>& workers = cluster_->workers();
  // Round-robin partition assignment: the paper allows arbitrary horizontal
  // partitioning (§2), so placement needs no keying. Worker w hosts
  // partitions w, w + n, w + 2n, ...
  RedoLog::Builder build = [workers, dataset_id,
                            partition_loaders](int w) -> Result<DataSetPtr> {
    std::vector<DataSetPtr> partitions;
    for (size_t p = static_cast<size_t>(w); p < partition_loaders.size();
         p += workers.size()) {
      partitions.push_back(LocalDataSet::FromLoader(
          dataset_id + "[" + std::to_string(p) + "]", partition_loaders[p]));
    }
    return workers[w]->MakeBase(dataset_id, std::move(partitions));
  };
  HV_RETURN_IF_ERROR(BuildEverywhere(workers, dataset_id, build));
  redo_log_->Append("load",
                    dataset_id + " (" +
                        std::to_string(partition_loaders.size()) +
                        " partitions)",
                    0, dataset_id, std::move(build));
  return Status::OK();
}

Result<std::string> RootSession::MapDataSet(const std::string& parent_id,
                                            TableMap map,
                                            const std::string& op_name) {
  std::string new_id = parent_id + "/" + op_name;
  const std::vector<WorkerPtr>& workers = cluster_->workers();
  // The raw log pointer is safe: the builder lives in that log and only
  // runs through it (or right below, while the session is alive).
  RedoLog::Builder build = [log = redo_log_.get(), workers, parent_id, map,
                            op_name](int w) -> Result<DataSetPtr> {
    HV_ASSIGN_OR_RETURN(DataSetPtr parent,
                        GetOrHeal(*log, workers[w], w, parent_id, nullptr));
    return parent->Map(map, op_name);
  };
  HV_RETURN_IF_ERROR(BuildEverywhere(workers, new_id, build));
  redo_log_->Append("map", parent_id + " -> " + new_id, 0, new_id,
                    std::move(build));
  return new_id;
}

DataSetPtr RootSession::GetRootDataSet(const std::string& dataset_id) {
  return BuildRootDataSet(
      dataset_id, cluster_->options().aggregation.tolerate_child_failures,
      /*heals=*/nullptr);
}

DataSetPtr RootSession::BuildRootDataSet(const std::string& dataset_id,
                                         bool tolerant, HealCounter heals) {
  const std::vector<WorkerPtr>& workers = cluster_->workers();
  std::vector<DataSetPtr> children;
  children.reserve(workers.size());
  for (size_t w = 0; w < workers.size(); ++w) {
    // The edge heals lost soft state itself. A straggler attempt may heal
    // after this session is gone, so the heal shares the log and the worker
    // rather than pointing at the session.
    RemoteDataSet::Heal heal = [log = redo_log_, worker = workers[w],
                                index = static_cast<int>(w),
                                heals](const std::string& id) {
      return GetOrHeal(*log, worker, index, id, heals.get());
    };
    // Every machine-boundary edge knows its worker index (the fault-injection
    // channel id) and reports RPC outcomes to the shared health tracker, so
    // the breaker learns from all sessions' traffic regardless of degraded
    // mode.
    children.push_back(std::make_shared<RemoteDataSet>(
        workers[w], dataset_id, cluster_->network(), static_cast<int>(w),
        &cluster_->health(), std::move(heal)));
  }
  ParallelDataSet::Options aggregation = cluster_->options().aggregation;
  aggregation.tolerate_child_failures =
      aggregation.tolerate_child_failures || tolerant;
  // The root aggregation node; children recurse into the workers' own
  // parallel trees (nullptr pool: remote children schedule on worker pools).
  return std::make_shared<ParallelDataSet>(
      "root/" + dataset_id, std::move(children), nullptr, aggregation);
}

CancellationTokenPtr RootSession::BeginRender(const std::string& view_id) {
  MutexLock lock(render_mutex_);
  RenderState& render = renders_[view_id];
  // Supersede the previous generation: its in-flight query (if any) observes
  // the flip at its next poll point and settles Status::Cancelled.
  if (render.token != nullptr) render.token->Cancel();
  ++render.generation;
  render.token = std::make_shared<CancellationToken>();
  return render.token;
}

int RootSession::render_generation(const std::string& view_id) const {
  MutexLock lock(render_mutex_);
  auto it = renders_.find(view_id);
  return it == renders_.end() ? 0 : it->second.generation;
}

Result<AnySummary> RootSession::RunErased(const std::string& dataset_id,
                                          const AnySketch& sketch,
                                          uint64_t seed, bool cacheable,
                                          CancellationTokenPtr token,
                                          QueryStats* stats) {
  QueryStats local_stats;
  QueryStats& q = stats != nullptr ? *stats : local_stats;
  q = QueryStats{};
  ComputationCache& cache = cluster_->shared_cache();
  const std::string cache_key =
      ComputationCache::Key(dataset_id, sketch.name(), seed);

  // Owns this query's cache flight when it is elected to compute. Only a
  // full-coverage success is published; every other exit (degraded,
  // cancelled, shed, failed) drops the handle, which releases the flight
  // empty so a waiting session recomputes instead of adopting a partial
  // result.
  ComputationCache::Flight flight;
  if (cacheable) {
    if (token != nullptr && token->IsCancelled()) {
      return Status::Cancelled("render superseded before start");
    }
    // Single-flight across sessions: a hit (cached, or adopted from another
    // session's concurrent identical query) returns without computing; a
    // miss elects this query the flight owner. The cache only ever holds
    // full-coverage results, so a hit is always complete.
    bool coalesced = false;
    auto hit = cache.GetOrBeginCompute(cache_key, &flight, &coalesced);
    if (hit.has_value()) {
      q.from_cache = true;
      q.coalesced = coalesced;
      return *hit;
    }
  }

  redo_log_->Append("sketch", dataset_id + "#" + sketch.name(), seed);

  // The attempt loop runs inside a scheduler grant: admission control may
  // shed it (Unavailable) or the render may be superseded while queued
  // (Cancelled) — in both cases the query never executes.
  const SimulatedNetwork::SessionTraffic before =
      cluster_->network()->SessionSnapshot(session_id_);
  // Counts the edges' heals; a straggler attempt may still count after the
  // query returned, into a counter nobody reads.
  auto heals = std::make_shared<std::atomic<int>>(0);
  Result<AnySummary> outcome = Status::Internal("query did not run");
  bool ran = false;
  Status scheduled = cluster_->scheduler().Execute(
      session_id_, token,
      [&]() -> Status {
        outcome = RunAttempts(dataset_id, sketch, seed, token, heals, &q);
        return outcome.status();
      },
      &ran);
  q.replay_heals = heals->load();
  if (!ran) return scheduled;

  // Charge the root-received bytes this query moved to the session's DRR
  // account (approximate when one session overlaps its own queries — the
  // fairness target is the per-session trend, not exact attribution).
  const SimulatedNetwork::SessionTraffic after =
      cluster_->network()->SessionSnapshot(session_id_);
  cluster_->scheduler().ChargeCost(
      session_id_, static_cast<int64_t>(after.bytes_up - before.bytes_up));

  if (outcome.ok() && !q.degraded) {
    // Publish to the shared cache and to any waiting session. Degraded
    // results are NEVER published: after the cluster heals, the same query
    // must recompute at full coverage, not serve the partial view forever —
    // and another session must never adopt this tenant's partial result.
    flight.Publish(outcome.value());
  }
  return outcome;
}

Result<AnySummary> RootSession::RunAttempts(const std::string& dataset_id,
                                            const AnySketch& sketch,
                                            uint64_t seed,
                                            const CancellationTokenPtr& token,
                                            const HealCounter& heals,
                                            QueryStats* stats) {
  QueryStats& q = *stats;
  const Cluster::Options& opts = cluster_->options();
  WorkerHealth& health = cluster_->health();

  Status last_error = Status::OK();
  bool degraded_pass = false;
  // Total attempts: the first run, every transport retry, plus the one final
  // degraded pass.
  const int max_attempts = 1 + opts.max_transport_retries + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (token != nullptr && token->IsCancelled()) {
      return Status::Cancelled("render superseded");
    }
    // Degrade as soon as a breaker is open: the breaker's verdict is the
    // signal that retrying into that worker is pointless, so the merge
    // should complete over the survivors (§5.7). The final degraded pass
    // also tolerates losses regardless of breaker state.
    const bool tolerant =
        degraded_pass || (opts.allow_degraded && health.AnyOpen());
    DataSetPtr root = BuildRootDataSet(dataset_id, tolerant, heals);
    SketchOptions options;
    options.seed = seed;
    options.rpc = opts.rpc;
    options.cancellation = token;
    options.session_id = session_id_;
    auto stream = root->RunSketch(sketch, options);

    std::optional<PartialResult<AnySummary>> last;
    bool backstop_fired = false;
    bool cancelled_wait = false;
    if (opts.rpc.deadline_ms > 0 || token != nullptr) {
      // Backstop against a truly hung worker whose stream never completes
      // at all — distinct from (and far above) the per-RPC deadline, which
      // handles merely late or lost responses. 0 = no backstop (then the
      // wait is purely cancellation-aware).
      const double backstop_ms =
          opts.rpc.deadline_ms > 0
              ? (opts.rpc.deadline_ms * (opts.rpc.max_retries + 1) +
                 opts.rpc.backoff_cap_ms * opts.rpc.max_retries) *
                        10.0 +
                    1000.0
              : 0.0;
      last = stream->BlockingLastFor(backstop_ms, &backstop_fired, token,
                                     &cancelled_wait);
    } else {
      last = stream->BlockingLast();
    }
    if (cancelled_wait) {
      // Superseded mid-flight: abandon the stream (stragglers complete into
      // a stream nobody reads) and settle immediately — the whole point of
      // generation-tagged cancellation is not waiting out slow renders.
      return Status::Cancelled("render superseded");
    }
    Status status = backstop_fired
                        ? Status::DeadlineExceeded(
                              "query exceeded its completion backstop")
                        : stream->final_status();

    if (status.ok()) {
      if (!last.has_value()) {
        return Status::Internal("sketch completed without a result");
      }
      q.coverage = last->coverage;
      q.degraded = last->coverage < 1.0;
      return last->value;
    }
    last_error = status;
    if (status.code() == StatusCode::kDeadlineExceeded &&
        q.transport_retries < opts.max_transport_retries) {
      // Transport-level failure: the sketch is pure and seeded, so simply
      // re-running it is safe. Back off (capped, seeded jitter) first.
      ++q.transport_retries;
      const double backoff =
          QueryBackoffMs(opts.rpc, seed, q.transport_retries);
      if (backoff > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
      }
      continue;
    }
    // Last resort: accept losing the dead workers and complete over the
    // survivors, marking the coverage. Lost soft state already healed at the
    // edge, so an Unavailable here is a worker the breaker fast-failed or a
    // dataset the log cannot rebuild.
    if ((status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded) &&
        !degraded_pass && opts.allow_degraded) {
      degraded_pass = true;
      continue;
    }
    break;
  }
  return last_error;
}

}  // namespace cluster
}  // namespace hillview
