// explore: one analyst, one client thread and one session on a 2M-row
// flights table, drawn on a full-size 600x400 screen. At that size every
// chart vizketch runs unsampled (rate 1), so the timed part is scan-bound in
// storage, sketch and core; the cluster's scheduler and cache have almost
// nothing to do. The script walks a bounded set of three zoom views
// (FilterRange on FlightDate), made once during set-up so memory stays flat,
// and on each draws a streamed histogram plus a CDF, a heat map, a stacked
// histogram, a table page, the next page, a scroll-bar jump, heavy hitters
// and (on the two larger views) a distinct count (bench.h, MakeScript).
// Chart vizketches get a fresh seed on every pass, so they always compute;
// the Spreadsheet's preparation queries (ranges, row counts, distinct
// strings) hit the root cache after the warm-up pass.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "render/chart.h"
#include "spreadsheet/spreadsheet.h"
#include "util/random.h"
#include "workload/flights.h"

namespace hvbench {
namespace {

constexpr uint64_t kRows = 2'000'000;
constexpr int kPartitions = 8;
constexpr int kWorkers = 2;
constexpr int kThreadsPerWorker = 1;
constexpr int kHealProbes = 7;

class Explore final : public Workload {
 public:
  explicit Explore(uint64_t seed)
      : seed_(seed), script_(MakeScript(seed, 0xE1, /*restart_workers=*/0)) {}

  ~Explore() override { Teardown(); }

  ThreadPlan plan() const override {
    return {kWorkers, kThreadsPerWorker, /*client_threads=*/1};
  }

  std::string Describe() const override {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%llu flights rows in %d partitions on %d workers; screen "
                  "600x400, chart rate 1; views of 100%%/40%%/15%% of rows; "
                  "sort keys after warm-up %.1f MiB on the fullest worker of "
                  "a %zu MiB cache",
                  static_cast<unsigned long long>(kRows), kPartitions,
                  kWorkers, static_cast<double>(sortkey_bytes_) / (1 << 20),
                  SortKeyCache::kDefaultMaxBytes >> 20);
    return buf;
  }

  Status Setup() override {
    Teardown();
    for (int w = 0; w < kWorkers; ++w) {
      workers_.push_back(std::make_shared<cluster::Worker>(
          "worker" + std::to_string(w), kThreadsPerWorker));
    }
    network_ = std::make_unique<cluster::SimulatedNetwork>();
    cluster_ = std::make_unique<cluster::Cluster>(workers_, network_.get());
    session_ = cluster_->OpenSession();
    HV_RETURN_IF_ERROR(session_->LoadDataSet(
        "flights",
        CountedLoaders(workload::FlightsLoaders(
            kRows, kRows / kPartitions, kDataSeed))));

    HV_ASSIGN_OR_RETURN(
        views_, PlanScriptViews(Spreadsheet(session_.get(), "flights", screen_),
                                script_, screen_));
    std::vector<ActionSample> warm_up;
    HV_RETURN_IF_ERROR(RunCycle(0, &warm_up));
    // The sort-key working set the script builds, as the caches measure it.
    sortkey_bytes_ = 0;
    for (const auto& worker : workers_) {
      sortkey_bytes_ =
          std::max(sortkey_bytes_, worker->key_cache()->Snapshot().bytes_used);
    }
    return Status::OK();
  }

  void Teardown() override {
    views_.clear();
    session_.reset();
    cluster_.reset();
    network_.reset();
    workers_.clear();
  }

  Status RunCycle(int iteration, std::vector<ActionSample>* out) override {
    for (size_t i = 0; i < script_.steps.size(); ++i) {
      out->push_back(RunStep(script_.steps[i], ActionSeed(seed_, iteration, i)));
    }
    ProbeScheduler(*cluster_, session_->session_id());
    return Status::OK();
  }

  std::string Fingerprint() const override { return script_.Digest(); }

  Status HealProbes(std::vector<ActionSample>* out) override {
    Random rng(MixSeed(seed_, 0x4EA1));
    for (int i = 0; i < kHealProbes; ++i) {
      session_->RestartWorker(static_cast<int>(rng.NextUint64(kWorkers)));
      // A blocking histogram: streams do not heal, the blocking path does.
      ScriptView& v = views_[0];
      ActionSample sample;
      sample.kind = "heal_hist";
      sample.category = Category::kChart;
      TimeAction(*cluster_, &sample, [&](ActionSample* a) -> Status {
        (void)v.sheet->TakeViewCoverage();
        Span call("spreadsheet.call", a->kind);
        HV_ASSIGN_OR_RETURN(HistogramResult h,
                            v.sheet->Histogram(v.hist_column));
        call.End();
        a->coverage = v.sheet->TakeViewCoverage();
        a->healed = v.sheet->last_query_stats().replay_heals > 0;
        a->check = [h = std::move(h), buckets = v.hist_buckets,
                    rows = v.rows] {
          return CheckHistogram(h, buckets, rows, h.sample_rate < 1);
        };
        return Status::OK();
      });
      out->push_back(std::move(sample));
    }
    return Status::OK();
  }

  Counters Snapshot() override {
    return Counters::Take(*cluster_, {session_.get()});
  }

 private:
  ActionSample RunStep(const ScriptStep& step, uint64_t seed) {
    ScriptView& v = views_[step.view];
    Spreadsheet& s = *v.sheet;
    ActionSample sample;
    sample.kind = ScriptKindName(step.kind);
    sample.category = ScriptKindCategory(step.kind);
    ProbeSpec probe;
    const ComputationCache::Stats cache_before =
        cluster_->shared_cache().Snapshot();
    const bool via_sheet = step.kind <= kScroll;
    TimeAction(*cluster_, &sample, [&](ActionSample* a) -> Status {
      (void)s.TakeViewCoverage();
      switch (step.kind) {
        case kHistCdf: {
          Span call("spreadsheet.call", a->kind);
          const Clock::time_point start = Clock::now();
          HV_ASSIGN_OR_RETURN(auto stream, s.HistogramStream(v.hist_column));
          const StreamOutcome streamed = AwaitStream(stream, start);
          HV_RETURN_IF_ERROR(streamed.status);
          a->first_partial_ms = streamed.first_partial_ms;
          a->coverage = streamed.last->coverage;
          HistogramResult hist = streamed.last->value;
          HV_ASSIGN_OR_RETURN(HistogramResult cdf, s.Cdf(v.hist_column));
          call.End();
          {
            Span render("render", a->kind);
            (void)RenderHistogram(hist, screen_);
            (void)RenderCdf(cdf, screen_);
          }
          const int buckets = v.hist_buckets;
          const int64_t rows = v.rows;
          a->check = [hist = std::move(hist), cdf = std::move(cdf), buckets,
                      rows, width = screen_.width] {
            std::string e =
                CheckHistogram(hist, buckets, rows, hist.sample_rate < 1);
            if (e.empty()) {
              e = CheckHistogram(cdf, static_cast<int>(cdf.counts.size()),
                                 rows, cdf.sample_rate < 1);
            }
            if (e.empty() && static_cast<int>(cdf.counts.size()) > width) {
              e = "cdf has more buckets than pixels";
            }
            return e;
          };
          probe = {v.id, AnySketch::Wrap<HistogramResult>(v.hist), 0,
                   v.hist->rate(), Category::kChart};
          break;
        }
        case kHeatMap: {
          Histogram2DResult heat;
          {
            Span call("spreadsheet.call", a->kind);
            HV_ASSIGN_OR_RETURN(heat, s.HeatMap(v.heat_x, v.heat_y));
          }
          {
            Span render("render", a->kind);
            (void)RenderHeatMap(heat);
          }
          a->check = [heat = std::move(heat), rows = v.rows] {
            return CheckHistogram2D(heat, rows, heat.sample_rate < 1);
          };
          probe = {v.id, AnySketch::Wrap<Histogram2DResult>(v.heat), 0,
                   v.heat->rate(), Category::kChart};
          break;
        }
        case kStacked: {
          Histogram2DResult stacked;
          {
            Span call("spreadsheet.call", a->kind);
            HV_ASSIGN_OR_RETURN(stacked,
                                s.StackedHistogram(v.stack_x, v.stack_y));
          }
          {
            Span render("render", a->kind);
            (void)RenderStackedHistogram(stacked, screen_, false);
          }
          a->check = [stacked = std::move(stacked), rows = v.rows] {
            return CheckHistogram2D(stacked, rows, stacked.sample_rate < 1);
          };
          probe = {v.id, AnySketch::Wrap<Histogram2DResult>(v.stack), 0,
                   v.stack->rate(), Category::kChart};
          break;
        }
        case kTable:
        case kNextPage:
        case kScroll: {
          NextItemsResult page;
          std::optional<std::vector<Value>> start;
          if (step.kind == kNextPage) start = v.next_start;
          {
            Span call("spreadsheet.call", a->kind);
            if (step.kind == kScroll) {
              HV_ASSIGN_OR_RETURN(
                  page, s.ScrollTo(v.order, v.display, step.q, kPageRows));
            } else {
              HV_ASSIGN_OR_RETURN(
                  page, s.TableView(v.order, v.display, start, kPageRows));
            }
          }
          if (step.kind == kTable) v.next_start = NextPageStart(page, v.order);
          a->check = [page = std::move(page), order = v.order] {
            return CheckPage(page, order, kPageRows);
          };
          probe = {s.dataset_id(),
                   AnySketch::Wrap<NextItemsResult>(
                       std::make_shared<NextItemsSketch>(v.order, v.display,
                                                         start, kPageRows)),
                   0, 1.0, Category::kTable};
          break;
        }
        case kHeavyHitters: {
          cluster::RootSession::QueryStats stats;
          auto sketch = std::make_shared<MisraGriesSketch>("Origin",
                                                           kHeavyHitterK);
          Span call("cluster.run_sketch", a->kind);
          HV_ASSIGN_OR_RETURN(HeavyHittersResult hh,
                              session_->RunSketch<HeavyHittersResult>(
                                  s.dataset_id(), sketch, seed,
                                  /*cacheable=*/false, &stats));
          call.End();
          a->coverage = stats.coverage;
          a->check = [hh = std::move(hh)] { return CheckHeavyHitters(hh); };
          probe = {s.dataset_id(), AnySketch::Wrap<HeavyHittersResult>(sketch),
                   seed, 1.0, Category::kOther};
          break;
        }
        case kDistinct: {
          cluster::RootSession::QueryStats stats;
          auto sketch = std::make_shared<HyperLogLogSketch>("Origin");
          Span call("cluster.run_sketch", a->kind);
          HV_ASSIGN_OR_RETURN(HllResult hll, session_->RunSketch<HllResult>(
                                                 s.dataset_id(), sketch, seed,
                                                 /*cacheable=*/false, &stats));
          call.End();
          a->coverage = stats.coverage;
          a->check = [hll = std::move(hll)] { return CheckDistinctOrigins(hll); };
          probe = {s.dataset_id(), AnySketch::Wrap<HllResult>(sketch), seed,
                   1.0, Category::kOther};
          break;
        }
      }
      if (via_sheet) a->coverage = std::min(a->coverage, s.TakeViewCoverage());
      return Status::OK();
    });
    if (via_sheet) {
      const ComputationCache::Stats after = cluster_->shared_cache().Snapshot();
      sample.prep_hits = after.hits - cache_before.hits;
      sample.prep_lookups = sample.prep_hits + after.misses -
                            cache_before.misses + after.coalesced_hits -
                            cache_before.coalesced_hits;
    }
    if (sample.status_ok && probe.sketch.valid()) {
      ActionScope scope(sample.id);
      Probe(*cluster_, probe);
    }
    return sample;
  }

  const uint64_t seed_;
  const Script script_;
  const ScreenResolution screen_{600, 400};
  std::vector<cluster::WorkerPtr> workers_;
  std::unique_ptr<cluster::SimulatedNetwork> network_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::shared_ptr<cluster::RootSession> session_;
  std::vector<ScriptView> views_;
  size_t sortkey_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeExplore(uint64_t seed) {
  return std::make_unique<Explore>(seed);
}

}  // namespace hvbench
