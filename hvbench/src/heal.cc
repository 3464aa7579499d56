// heal: one analyst runs explore's script (bench.h, MakeScript) on a
// 600k-row flights table that set-up spills to HVCF files and the workers
// load through the heap backend, so every reload does real storage work (it
// is neither a page-cache remap nor the synthetic generator). It is a
// restart storm: before every action but the three streamed histograms and
// the three scroll-bar jumps the script restarts one seeded worker, so 17
// of the pass's 23 actions heal by redo-log replay; before one streamed
// histogram it evicts one seeded worker's caches instead (streams do not
// heal, so a restart there would only measure the blocking fallback). The
// healed actions make up the bulk of every latency distribution, so its
// medians sit inside that cluster, and the healed heat maps, three per
// pass, hold its p95. A seeded FaultInjector drops requests at a low rate,
// plus two scripted ones per pass. Dropped requests cost the retry and no
// wasted summary, so a drop's cost does not depend on which sketch it hits.
// Worker trees are non-progressive, so each attempt sends exactly one
// message each way per worker and the fault verdicts are a pure function of
// the seed: every pass sees the same faults, and the run checks that.
// This is the only workload where cluster healing and core redo do the work.
// Queries go through RootSession::RunSketch with sketches the benchmark
// builds, so every healed answer can be compared with the same (view,
// sketch, seed) answered with faults off.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "render/chart.h"
#include "render/plan.h"
#include "spreadsheet/spreadsheet.h"
#include "util/random.h"
#include "workload/flights.h"

namespace hvbench {
namespace {

constexpr uint64_t kRows = 600'000;
constexpr int kPartitions = 6;
constexpr int kWorkers = 3;
constexpr int kThreadsPerWorker = 1;
constexpr double kDropDown = 0.02;
constexpr int kScriptedDrops = 2;

class Heal final : public Workload {
 public:
  Heal(uint64_t seed, std::string out_dir)
      : seed_(seed),
        out_dir_(out_dir.empty() ? "." : std::move(out_dir)),
        script_(MakeScript(seed, 0x4EA1, kWorkers)) {
    plan_.seed = MixSeed(seed, 0xFA17);
    plan_.down.drop = kDropDown;
    // Two scripted drops early in each pass, so that every seed's passes
    // retry at least twice, on top of the random drops.
    Random rng(MixSeed(seed, 0xD409));
    for (int i = 0; i < kScriptedDrops; ++i) {
      plan_.schedule.push_back(cluster::ScriptedFault::DropNth(
          static_cast<int>(rng.NextUint64(kWorkers)),
          cluster::Direction::kDown, rng.NextUint64(8)));
    }
  }

  ~Heal() override { Teardown(); }

  ThreadPlan plan() const override {
    return {kWorkers, kThreadsPerWorker, /*client_threads=*/1};
  }

  std::string Describe() const override {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%llu flights rows in %d HVCF partitions (heap backend) on "
                  "%d workers; screen 600x400, chart rate 1; a restart "
                  "before 17 of 23 actions; requests dropped at rate %.2f",
                  static_cast<unsigned long long>(kRows), kPartitions,
                  kWorkers, kDropDown);
    return buf;
  }

  Status Setup() override {
    Teardown();
    spill_dir_ = out_dir_ + "/heal-spill-" + std::to_string(getpid()) + "-" +
                 std::to_string(setups_++);
    HV_ASSIGN_OR_RETURN(
        std::vector<LocalDataSet::Loader> loaders,
        workload::FlightsFileLoaders(spill_dir_, kRows, kRows / kPartitions,
                                     kDataSeed,
                                     StorageBackend::kHeap));
    ParallelDataSet::Options worker_tree;
    worker_tree.progressive = false;
    for (int w = 0; w < kWorkers; ++w) {
      workers_.push_back(std::make_shared<cluster::Worker>(
          "worker" + std::to_string(w), kThreadsPerWorker, worker_tree));
    }
    network_ = std::make_unique<cluster::SimulatedNetwork>();
    cluster::Cluster::Options options;
    // No wall-clock deadlines and no backoff sleeps: a dropped message is
    // settled at once and retried, so recovery is work, not waiting, and no
    // verdict depends on the machine's speed.
    options.rpc.deadline_ms = 0;
    options.rpc.backoff_base_ms = 0;
    options.rpc.backoff_cap_ms = 0;
    cluster_ = std::make_unique<cluster::Cluster>(workers_, network_.get(),
                                                  options);
    session_ = cluster_->OpenSession();
    HV_RETURN_IF_ERROR(
        session_->LoadDataSet("flights", CountedLoaders(std::move(loaders))));

    HV_ASSIGN_OR_RETURN(
        views_, PlanScriptViews(Spreadsheet(session_.get(), "flights", screen_),
                                script_, screen_));
    std::vector<ActionSample> warm_up;
    HV_RETURN_IF_ERROR(RunCycle(0, &warm_up));
    // The warm-up pass's answers are checked too: a set-up that heals wrong
    // would otherwise go unnoticed.
    for (ActionSample& a : warm_up) {
      if (!a.status_ok) return Status::Internal("warm-up: " + a.failure);
      const std::string e = a.check ? a.check() : "";
      if (!e.empty()) return Status::Internal("warm-up: " + e);
    }
    return Status::OK();
  }

  void Teardown() override {
    views_.clear();
    session_.reset();
    cluster_.reset();
    network_.reset();
    workers_.clear();
    if (!spill_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(spill_dir_, ec);
      spill_dir_.clear();
    }
  }

  Status RunCycle(int iteration, std::vector<ActionSample>* out) override {
    // A fresh injector per pass: its channel counters restart at zero, so
    // every pass replays the same verdicts.
    auto injector = std::make_shared<cluster::FaultInjector>(plan_);
    network_->InstallFaultInjector(injector);
    for (size_t i = 0; i < script_.steps.size(); ++i) {
      const ScriptStep& step = script_.steps[i];
      if (step.restart >= 0) session_->RestartWorker(step.restart);
      if (step.evict >= 0) workers_[step.evict]->EvictCaches();
      out->push_back(RunStep(step, ActionSeed(seed_, iteration, i)));
    }
    ProbeScheduler(*cluster_, session_->session_id());
    network_->InstallFaultInjector(nullptr);
    const cluster::FaultInjector::Stats f = injector->Snapshot();
    faults_total_ += static_cast<int64_t>(f.dropped + f.corrupted);
    const std::string digest =
        Hex(Fnv(std::to_string(f.judged) + "/" + std::to_string(f.delivered) +
                "/" + std::to_string(f.dropped) + "/" +
                std::to_string(f.corrupted) + "/" +
                std::to_string(f.duplicated)));
    if (iteration >= 1) {
      if (fault_digest_.empty()) {
        fault_digest_ = digest;
        fault_stats_ = f;
      } else if (digest != fault_digest_) {
        mismatch_ = "pass " + std::to_string(iteration) + " fault digest " +
                    digest + " differs from the first pass's " + fault_digest_;
      }
    }
    return Status::OK();
  }

  /// The script's digest and the per-pass fault digest. run.py compares
  /// it only across runs of the same source tree: how many messages the
  /// injector judges follows how many RPCs the program sends.
  std::string Fingerprint() const override {
    char faults[160];
    std::snprintf(faults, sizeof(faults),
                  " faults per pass: judged %llu dropped %llu (digest %s)",
                  static_cast<unsigned long long>(fault_stats_.judged),
                  static_cast<unsigned long long>(fault_stats_.dropped),
                  fault_digest_.c_str());
    return script_.Digest() + "-" + fault_digest_ + faults;
  }

  /// The script heals inside every pass; no separate probes are needed.
  Status HealProbes(std::vector<ActionSample>*) override {
    return Status::OK();
  }

  Counters Snapshot() override {
    Counters c = Counters::Take(*cluster_, {session_.get()});
    c.faults_dropped = faults_total_;
    return c;
  }

  std::string FinalCheck() override {
    if (!mismatch_.empty()) return mismatch_;
    if (fault_stats_.dropped == 0) return "no fault was injected in a pass";
    return "";
  }

 private:
  /// Runs one healing query. The answer check compares a healed answer with
  /// the same (view, sketch, seed) answered with faults off.
  template <typename R>
  Status Query(ActionSample* a, const std::string& view, SketchPtr<R> sketch,
               uint64_t seed, R* out, std::function<std::string()>* compare) {
    cluster::RootSession::QueryStats stats;
    Span call("cluster.run_sketch", a->kind);
    HV_ASSIGN_OR_RETURN(*out, session_->RunSketch<R>(view, sketch, seed,
                                                     /*cacheable=*/false,
                                                     &stats));
    call.End();
    a->coverage = std::min(a->coverage, stats.coverage);
    a->healed = a->healed || stats.replay_heals > 0;
    a->transport_retries += stats.transport_retries;
    a->breaker_open = a->breaker_open || cluster_->health().AnyOpen();
    if (stats.replay_heals > 0 || stats.transport_retries > 0) {
      AppendCompare<R>(view, sketch, seed, *out, compare);
    }
    return Status::OK();
  }

  template <typename R>
  void AppendCompare(const std::string& view, SketchPtr<R> sketch,
                     uint64_t seed, const R& answer,
                     std::function<std::string()>* compare) {
    const AnySketch erased = AnySketch::Wrap<R>(sketch);
    std::vector<uint8_t> healed = erased.Serialize(AnySummary::Wrap<R>(answer));
    auto previous = std::move(*compare);
    *compare = [this, view, sketch, seed, erased, healed = std::move(healed),
                previous = std::move(previous)]() -> std::string {
      if (previous) {
        std::string e = previous();
        if (!e.empty()) return e;
      }
      auto clean = session_->RunSketch<R>(view, sketch, seed, false);
      if (!clean.ok()) return "faults-off rerun: " + clean.status().ToString();
      if (erased.Serialize(AnySummary::Wrap<R>(clean.value())) != healed) {
        return "healed answer of " + sketch->name() +
               " differs from the faults-off answer";
      }
      return "";
    };
  }

  ActionSample RunStep(const ScriptStep& step, uint64_t seed) {
    ScriptView& v = views_[step.view];
    ActionSample sample;
    sample.kind = ScriptKindName(step.kind);
    sample.category = ScriptKindCategory(step.kind);
    ProbeSpec probe;
    TimeAction(*cluster_, &sample, [&](ActionSample* a) -> Status {
      std::function<std::string()> compare;
      std::function<std::string()> local;
      switch (step.kind) {
        case kHistCdf: {
          // Streams do not heal: on failure the client resubscribes through
          // the healing blocking path, as the RootSession contract says.
          HistogramResult hist;
          const Clock::time_point start = Clock::now();
          {
            Span call("cluster.run_sketch_stream", a->kind);
            const StreamOutcome streamed = AwaitStream(
                session_->RunSketchStream<HistogramResult>(v.id, v.hist, seed),
                start);
            if (streamed.status.ok()) {
              a->first_partial_ms = streamed.first_partial_ms;
              a->coverage = streamed.last->coverage;
              hist = streamed.last->value;
            }
          }
          if (a->first_partial_ms < 0) {
            HV_RETURN_IF_ERROR(Query<HistogramResult>(a, v.id, v.hist, seed,
                                                      &hist, &compare));
          }
          HistogramResult cdf;
          HV_RETURN_IF_ERROR(Query<HistogramResult>(a, v.id, v.cdf, seed, &cdf,
                                                    &compare));
          {
            Span render("render", a->kind);
            (void)RenderHistogram(hist, screen_);
            (void)RenderCdf(cdf, screen_);
          }
          local = [hist = std::move(hist), cdf = std::move(cdf),
                   hb = v.hist_buckets, cb = v.cdf_buckets, rows = v.rows] {
            std::string e = CheckHistogram(hist, hb, rows, false);
            return e.empty() ? CheckHistogram(cdf, cb, rows, false) : e;
          };
          probe = {v.id, AnySketch::Wrap<HistogramResult>(v.hist), seed, 1.0,
                   Category::kChart};
          break;
        }
        case kHeatMap:
        case kStacked: {
          auto sketch = step.kind == kHeatMap ? v.heat : v.stack;
          Histogram2DResult h;
          HV_RETURN_IF_ERROR(
              Query<Histogram2DResult>(a, v.id, sketch, seed, &h, &compare));
          {
            Span render("render", a->kind);
            if (step.kind == kHeatMap) {
              (void)RenderHeatMap(h);
            } else {
              (void)RenderStackedHistogram(h, screen_, false);
            }
          }
          local = [h = std::move(h), rows = v.rows] {
            return CheckHistogram2D(h, rows, h.sample_rate < 1);
          };
          probe = {v.id, AnySketch::Wrap<Histogram2DResult>(sketch), seed,
                   1.0, Category::kChart};
          break;
        }
        case kTable:
        case kNextPage:
        case kScroll: {
          std::optional<std::vector<Value>> start;
          if (step.kind == kNextPage) start = v.next_start;
          if (step.kind == kScroll) {
            // Spreadsheet::ScrollTo's plan: a quantile sample sized for a
            // 100-position scroll bar, then the page at quantile q.
            const uint64_t size = QuantileSampleSize(
                std::min(screen_.height, 100));
            auto quantile = std::make_shared<QuantileSketch>(
                v.order, SampleRateForSize(size, static_cast<uint64_t>(v.rows)),
                static_cast<int>(2 * size));
            QuantileResult q;
            HV_RETURN_IF_ERROR(Query<QuantileResult>(a, v.id, quantile, seed,
                                                     &q, &compare));
            const std::vector<Value>* key = q.KeyAtQuantile(step.q);
            if (key != nullptr) start = *key;
          }
          auto sketch = std::make_shared<NextItemsSketch>(v.order, v.display,
                                                          start, kPageRows);
          NextItemsResult page;
          HV_RETURN_IF_ERROR(
              Query<NextItemsResult>(a, v.id, sketch, seed, &page, &compare));
          if (step.kind == kTable) v.next_start = NextPageStart(page, v.order);
          local = [page = std::move(page), order = v.order] {
            return CheckPage(page, order, kPageRows);
          };
          probe = {v.id, AnySketch::Wrap<NextItemsResult>(sketch), seed, 1.0,
                   Category::kTable};
          break;
        }
        case kHeavyHitters: {
          auto sketch =
              std::make_shared<MisraGriesSketch>("Origin", kHeavyHitterK);
          HeavyHittersResult hh;
          HV_RETURN_IF_ERROR(
              Query<HeavyHittersResult>(a, v.id, sketch, seed, &hh, &compare));
          local = [hh = std::move(hh)] { return CheckHeavyHitters(hh); };
          probe = {v.id, AnySketch::Wrap<HeavyHittersResult>(sketch), seed,
                   1.0, Category::kOther};
          break;
        }
        case kDistinct: {
          auto sketch = std::make_shared<HyperLogLogSketch>("Origin");
          HllResult hll;
          HV_RETURN_IF_ERROR(
              Query<HllResult>(a, v.id, sketch, seed, &hll, &compare));
          local = [hll = std::move(hll)] { return CheckDistinctOrigins(hll); };
          probe = {v.id, AnySketch::Wrap<HllResult>(sketch), seed, 1.0,
                   Category::kOther};
          break;
        }
      }
      a->check = [local = std::move(local),
                  compare = std::move(compare)]() -> std::string {
        std::string e = local();
        if (e.empty() && compare) e = compare();
        return e;
      };
      return Status::OK();
    });
    if (sample.status_ok && probe.sketch.valid()) {
      ActionScope scope(sample.id);
      Probe(*cluster_, probe);
    }
    return sample;
  }

  const uint64_t seed_;
  const std::string out_dir_;
  const Script script_;
  const ScreenResolution screen_{600, 400};
  cluster::FaultPlan plan_;
  int setups_ = 0;
  std::string spill_dir_;
  std::vector<cluster::WorkerPtr> workers_;
  std::unique_ptr<cluster::SimulatedNetwork> network_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::shared_ptr<cluster::RootSession> session_;
  int64_t faults_total_ = 0;  // dropped messages over all passes
  std::vector<ScriptView> views_;
  std::string fault_digest_;
  cluster::FaultInjector::Stats fault_stats_;
  std::string mismatch_;
};

}  // namespace

std::unique_ptr<Workload> MakeHeal(uint64_t seed, const std::string& out_dir) {
  return std::make_unique<Heal>(seed, out_dir);
}

}  // namespace hvbench
