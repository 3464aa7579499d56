// dashboard: four tenant sessions share one cluster through two client
// threads, and two client threads share a scheduler that runs one query at
// a time (dispatch_concurrency 1), so the fair scheduler queues. Each tenant
// refreshes a panel of six small tiles (120x60 px) through
// RootSession::RunSketch, once per pass:
//   - three shared tiles on the whole table use one seed for every tenant in
//     a pass, so the shared ComputationCache computes each once and serves or
//     coalesces the other three tenants;
//   - three per-tenant tiles on the tenant's own date filter are uncacheable:
//     a streamed histogram, a heat map and a top-10 table.
// The table is sized so the shared tiles sample at rate < 1; the cluster
// (cache, scheduler, RPC) and the sampled sketch path do most of the work.
// Passes run in lock step (threads join between passes), so every pass has
// the same cache pattern: one computation per shared tile.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "render/chart.h"
#include "render/plan.h"
#include "spreadsheet/spreadsheet.h"
#include "util/random.h"
#include "workload/flights.h"

namespace hvbench {
namespace {

constexpr uint64_t kRows = 2'000'000;
constexpr int kPartitions = 8;
constexpr int kWorkers = 2;
constexpr int kThreadsPerWorker = 1;
constexpr int kClients = 2;
constexpr int kTenants = 4;
constexpr int kDispatch = 1;
constexpr int kTableRows = 10;
constexpr int kHealProbes = 7;
constexpr int kTenantDays = 6 * 365;

enum Tile {
  kDelayHist,    // shared
  kDistanceCdf,  // shared
  kHourStack,    // shared
  kArrStream,    // per tenant, streamed
  kHeat,         // per tenant
  kTop,          // per tenant table
  kNumTiles
};

const char* TileName(int t) {
  static const char* names[] = {"delay_hist", "distance_cdf", "hour_stack",
                                "arr_stream", "heat",         "top_table"};
  return names[t];
}

bool Shared(int t) { return t <= kHourStack; }

struct Tenant {
  std::shared_ptr<cluster::RootSession> session;
  std::string view;
  int64_t view_rows = 0;
  std::shared_ptr<SampledHistogramSketch> arr_hist;
  std::shared_ptr<Histogram2DSketch> heat;
  std::shared_ptr<NextItemsSketch> top;
  int arr_buckets = 0;
};

class Dashboard final : public Workload {
 public:
  explicit Dashboard(uint64_t seed) : seed_(seed) {
    Random rng(MixSeed(seed, 0xDB));
    for (int t = 0; t < kTenants; ++t) {
      window_starts_.push_back(
          static_cast<int>(rng.NextUint64(kDaysSpanned - kTenantDays)));
    }
  }

  ~Dashboard() override { Teardown(); }

  ThreadPlan plan() const override {
    return {kWorkers, kThreadsPerWorker, kClients};
  }

  std::string Describe() const override {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%llu flights rows in %d partitions on %d workers; %d "
                  "tenants on %d client threads, dispatch_concurrency %d; "
                  "tiles 120x60; shared tile rates hist %.3f cdf %.3f stack "
                  "%.3f; tenant views 30%% of rows",
                  static_cast<unsigned long long>(kRows), kPartitions,
                  kWorkers, kTenants, kClients, kDispatch, delay_->rate(),
                  distance_->rate(), stack_rate_);
    return buf;
  }

  Status Setup() override {
    Teardown();
    for (int w = 0; w < kWorkers; ++w) {
      workers_.push_back(std::make_shared<cluster::Worker>(
          "worker" + std::to_string(w), kThreadsPerWorker));
    }
    network_ = std::make_unique<cluster::SimulatedNetwork>();
    cluster::Cluster::Options options;
    options.scheduler.dispatch_concurrency = kDispatch;
    cluster_ = std::make_unique<cluster::Cluster>(workers_, network_.get(),
                                                  options);
    const auto loaders = CountedLoaders(workload::FlightsLoaders(
        kRows, kRows / kPartitions, kDataSeed));
    tenants_.resize(kTenants);
    // Every tenant registers the base table itself, so its own redo log can
    // rebuild it after a worker restart.
    for (Tenant& t : tenants_) {
      t.session = cluster_->OpenSession();
      HV_RETURN_IF_ERROR(t.session->LoadDataSet("flights", loaders));
    }
    Spreadsheet base(tenants_[0].session.get(), "flights", tile_);
    HV_ASSIGN_OR_RETURN(rows_, base.RowCount());  // materializes partitions
    HV_RETURN_IF_ERROR(PlanSharedTiles(&base));
    for (int i = 0; i < kTenants; ++i) {
      HV_RETURN_IF_ERROR(PlanTenant(i));
    }
    std::vector<ActionSample> warm_up;
    return RunCycle(0, &warm_up);
  }

  void Teardown() override {
    tenants_.clear();
    cluster_.reset();
    network_.reset();
    workers_.clear();
  }

  Status RunCycle(int iteration, std::vector<ActionSample>* out) override {
    std::vector<std::vector<ActionSample>> per_client(kClients);
    std::vector<std::vector<std::pair<int64_t, ProbeSpec>>> probes(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c, iteration, &per_client, &probes] {
        for (int t = c; t < kTenants; t += kClients) {
          for (int tile = 0; tile < kNumTiles; ++tile) {
            ProbeSpec probe;
            per_client[c].push_back(RunTile(t, tile, iteration, &probe));
            if (probe.sketch.valid()) {
              probes[c].emplace_back(per_client[c].back().id,
                                     std::move(probe));
            }
          }
          // A no-op query under the other client's load: its grant wait.
          ProbeScheduler(*cluster_, tenants_[t].session->session_id());
        }
      });
    }
    for (auto& c : clients) c.join();
    // Probes run after the pass, one at a time: interleaved with the
    // tenants' queries they would change the load the pass measures.
    for (const auto& list : probes) {
      for (const auto& [action, spec] : list) {
        ActionScope scope(action);
        Probe(*cluster_, spec);
      }
    }
    for (auto& samples : per_client) {
      for (auto& s : samples) out->push_back(std::move(s));
    }
    return Status::OK();
  }

  std::string Fingerprint() const override {
    std::string text;
    char buf[48];
    for (int w : window_starts_) {
      std::snprintf(buf, sizeof(buf), "|%d", w);
      text += buf;
    }
    for (int t = 0; t < kTenants; ++t) {
      for (int tile = 0; tile < kNumTiles; ++tile) {
        std::snprintf(buf, sizeof(buf), "|%d:%s", t, TileName(tile));
        text += buf;
      }
    }
    return Hex(Fnv(text));
  }

  Status HealProbes(std::vector<ActionSample>* out) override {
    Random rng(MixSeed(seed_, 0x4EA1));
    cluster::RootSession& session = *tenants_[0].session;
    for (int i = 0; i < kHealProbes; ++i) {
      session.RestartWorker(static_cast<int>(rng.NextUint64(kWorkers)));
      ActionSample sample;
      sample.kind = "heal_delay_hist";
      sample.category = Category::kChart;
      const uint64_t seed = rng.NextUint64();
      TimeAction(*cluster_, &sample, [&](ActionSample* a) -> Status {
        cluster::RootSession::QueryStats stats;
        Span call("cluster.run_sketch", a->kind);
        HV_ASSIGN_OR_RETURN(HistogramResult h,
                            session.RunSketch<HistogramResult>(
                                "flights", delay_, seed, false, &stats));
        call.End();
        a->coverage = stats.coverage;
        a->healed = stats.replay_heals > 0;
        a->check = [h = std::move(h), this] {
          return CheckHistogram(h, delay_buckets_, rows_, delay_->rate() < 1);
        };
        return Status::OK();
      });
      out->push_back(std::move(sample));
    }
    return Status::OK();
  }

  Counters Snapshot() override {
    std::vector<cluster::RootSession*> sessions;
    for (Tenant& t : tenants_) sessions.push_back(t.session.get());
    return Counters::Take(*cluster_, sessions);
  }

 private:
  Status PlanSharedTiles(Spreadsheet* base) {
    HV_ASSIGN_OR_RETURN(RangeResult delay, base->ColumnRange("DepDelay"));
    const HistogramPlan hist = PlanHistogram(delay, tile_);
    delay_buckets_ = hist.buckets.count();
    delay_ = std::make_shared<SampledHistogramSketch>("DepDelay", hist.buckets,
                                                      hist.sample_rate);
    HV_ASSIGN_OR_RETURN(RangeResult distance, base->ColumnRange("Distance"));
    const HistogramPlan cdf = PlanCdf(distance, tile_);
    distance_buckets_ = cdf.buckets.count();
    distance_ = std::make_shared<SampledHistogramSketch>(
        "Distance", cdf.buckets, cdf.sample_rate);
    HV_ASSIGN_OR_RETURN(RangeResult hour, base->ColumnRange("CrsDepTime"));
    HV_ASSIGN_OR_RETURN(RangeResult airline, base->ColumnRange("Airline"));
    HV_ASSIGN_OR_RETURN(BottomKResult airlines,
                        base->DistinctStrings("Airline"));
    const int x_count = HistogramBucketCount(tile_);
    stack_rate_ = SampleRateForSize(
        StackedHistogramSampleSize(tile_.height, x_count),
        static_cast<uint64_t>(hour.TotalRows()));
    stack_ = std::make_shared<Histogram2DSketch>(
        "CrsDepTime", Buckets(PlanNumericBuckets(hour, x_count)), "Airline",
        Buckets(PlanStringBuckets(airlines, airline,
                                  ChartDefaults::kMaxStackColors)),
        stack_rate_);
    return Status::OK();
  }

  Status PlanTenant(int i) {
    Tenant& t = tenants_[i];
    Spreadsheet base(t.session.get(), "flights", tile_);
    const double lo =
        static_cast<double>(kEpochStart + window_starts_[i] * kDayMs);
    const double hi = lo + static_cast<double>(kTenantDays * kDayMs) - 1;
    HV_ASSIGN_OR_RETURN(Spreadsheet view, base.FilterRange("FlightDate", lo, hi));
    t.view = view.dataset_id();
    HV_ASSIGN_OR_RETURN(t.view_rows, view.RowCount());
    HV_ASSIGN_OR_RETURN(RangeResult arr, view.ColumnRange("ArrDelay"));
    const HistogramPlan hist = PlanHistogram(arr, tile_);
    t.arr_buckets = hist.buckets.count();
    t.arr_hist = std::make_shared<SampledHistogramSketch>(
        "ArrDelay", hist.buckets, hist.sample_rate);
    HV_ASSIGN_OR_RETURN(RangeResult x, view.ColumnRange("DepDelay"));
    HV_ASSIGN_OR_RETURN(RangeResult y, view.ColumnRange("TaxiOut"));
    const HeatMapPlan heat =
        PlanHeatMap(static_cast<uint64_t>(x.TotalRows()), tile_);
    t.heat = std::make_shared<Histogram2DSketch>(
        "DepDelay", Buckets(PlanNumericBuckets(x, heat.x_bins)), "TaxiOut",
        Buckets(PlanNumericBuckets(y, heat.y_bins)), heat.sample_rate);
    t.top = std::make_shared<NextItemsSketch>(
        order_, std::vector<std::string>{"Origin", "Dest"}, std::nullopt,
        kTableRows);
    return Status::OK();
  }

  /// Runs one cacheable-or-not tile query and its answer check.
  template <typename R>
  Status Query(ActionSample* a, Tenant& t, const std::string& dataset,
               SketchPtr<R> sketch, uint64_t seed, bool cacheable, R* out,
               ProbeSpec* probe, double rate) {
    cluster::RootSession::QueryStats stats;
    Span call("cluster.run_sketch", a->kind);
    HV_ASSIGN_OR_RETURN(*out, t.session->RunSketch<R>(dataset, sketch, seed,
                                                      cacheable, &stats));
    call.End();
    a->coverage = stats.coverage;
    a->healed = stats.replay_heals > 0;
    a->transport_retries = stats.transport_retries;
    if (!stats.from_cache && !stats.coalesced) {
      *probe = {dataset, AnySketch::Wrap<R>(sketch), seed, rate,
                a->category};
    }
    return Status::OK();
  }

  /// Runs one tile refresh; fills `probe` with the vizketch it computed
  /// (left empty when the shared cache served it).
  ActionSample RunTile(int tenant, int tile, int iteration, ProbeSpec* out) {
    Tenant& t = tenants_[tenant];
    ActionSample sample;
    sample.kind = TileName(tile);
    sample.category = tile == kTop ? Category::kTable : Category::kChart;
    // Shared tiles: one seed per pass for every tenant; the rest: per tenant.
    const uint64_t pass_seed = MixSeed(seed_, static_cast<uint64_t>(iteration));
    const uint64_t seed =
        Shared(tile) ? MixSeed(pass_seed, tile)
                     : MixSeed(MixSeed(pass_seed, 100 + tenant), tile);
    ProbeSpec probe;
    TimeAction(*cluster_, &sample, [&](ActionSample* a) -> Status {
      switch (tile) {
        case kDelayHist: {
          HistogramResult h;
          HV_RETURN_IF_ERROR(Query<HistogramResult>(a, t, "flights", delay_,
                                                    seed, true, &h, &probe,
                                                    delay_->rate()));
          {
            Span render("render", a->kind);
            (void)RenderHistogram(h, tile_);
          }
          a->check = [h = std::move(h), this] {
            return CheckHistogram(h, delay_buckets_, rows_,
                                  delay_->rate() < 1);
          };
          break;
        }
        case kDistanceCdf: {
          HistogramResult h;
          HV_RETURN_IF_ERROR(Query<HistogramResult>(a, t, "flights",
                                                    distance_, seed, true, &h,
                                                    &probe, distance_->rate()));
          {
            Span render("render", a->kind);
            (void)RenderCdf(h, tile_);
          }
          a->check = [h = std::move(h), this] {
            return CheckHistogram(h, distance_buckets_, rows_,
                                  distance_->rate() < 1);
          };
          break;
        }
        case kHourStack: {
          Histogram2DResult h;
          HV_RETURN_IF_ERROR(Query<Histogram2DResult>(a, t, "flights", stack_,
                                                      seed, true, &h, &probe,
                                                      stack_rate_));
          {
            Span render("render", a->kind);
            (void)RenderStackedHistogram(h, tile_, false);
          }
          a->check = [h = std::move(h), this] {
            return CheckHistogram2D(h, rows_, stack_rate_ < 1);
          };
          break;
        }
        case kArrStream: {
          const Clock::time_point start = Clock::now();
          Span call("cluster.run_sketch_stream", a->kind);
          const StreamOutcome streamed = AwaitStream(
              t.session->RunSketchStream<HistogramResult>(t.view, t.arr_hist,
                                                          seed),
              start);
          call.End();
          HV_RETURN_IF_ERROR(streamed.status);
          a->first_partial_ms = streamed.first_partial_ms;
          a->coverage = streamed.last->coverage;
          HistogramResult h = streamed.last->value;
          {
            Span render("render", a->kind);
            (void)RenderHistogram(h, tile_);
          }
          const double rate = t.arr_hist->rate();
          a->check = [h = std::move(h), buckets = t.arr_buckets,
                      rows = t.view_rows, rate] {
            return CheckHistogram(h, buckets, rows, rate < 1);
          };
          probe = {t.view, AnySketch::Wrap<HistogramResult>(t.arr_hist), seed,
                   rate, Category::kChart};
          break;
        }
        case kHeat: {
          Histogram2DResult h;
          HV_RETURN_IF_ERROR(Query<Histogram2DResult>(
              a, t, t.view, t.heat, seed, false, &h, &probe, 1.0));
          {
            Span render("render", a->kind);
            (void)RenderHeatMap(h);
          }
          a->check = [h = std::move(h), rows = t.view_rows] {
            return CheckHistogram2D(h, rows, h.sample_rate < 1);
          };
          break;
        }
        case kTop: {
          NextItemsResult page;
          HV_RETURN_IF_ERROR(Query<NextItemsResult>(
              a, t, t.view, t.top, seed, false, &page, &probe, 1.0));
          a->check = [page = std::move(page), order = order_] {
            return CheckPage(page, order, kTableRows);
          };
          break;
        }
      }
      return Status::OK();
    });
    if (sample.status_ok && Tracer::Get().enabled()) *out = std::move(probe);
    return sample;
  }

  const uint64_t seed_;
  const ScreenResolution tile_{120, 60};
  const RecordOrder order_{{{"DepDelay", false}}};
  std::vector<int> window_starts_;
  std::vector<cluster::WorkerPtr> workers_;
  std::unique_ptr<cluster::SimulatedNetwork> network_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::vector<Tenant> tenants_;
  int64_t rows_ = 0;
  std::shared_ptr<SampledHistogramSketch> delay_, distance_;
  std::shared_ptr<Histogram2DSketch> stack_;
  int delay_buckets_ = 0, distance_buckets_ = 0;
  double stack_rate_ = 1.0;
};

}  // namespace

std::unique_ptr<Workload> MakeDashboard(uint64_t seed) {
  return std::make_unique<Dashboard>(seed);
}

}  // namespace hvbench
