#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "render/plan.h"
#include "sketch/next_items.h"
#include "storage/sort_key_cache.h"
#include "util/random.h"

namespace hvbench {

namespace {

thread_local int64_t t_current_span = 0;
thread_local int64_t t_current_action = 0;

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kChart:
      return "chart";
    case Category::kTable:
      return "table";
    case Category::kOther:
      break;
  }
  return "other";
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"kind\":\"" << s.kind
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"action\":" << s.action << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"attr\":" << s.attr << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

Span::Span(const char* name, const char* kind) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.kind = kind;
  record_.id = tracer.NextId();
  record_.parent = t_current_span;
  record_.action = t_current_action != 0
                       ? t_current_action
                       : tracer.active_action.load(std::memory_order_relaxed);
  saved_parent_ = t_current_span;
  t_current_span = record_.id;
  record_.start_ns = tracer.NowNs();
}

void Span::End() {
  if (!active_) return;
  active_ = false;
  Tracer& tracer = Tracer::Get();
  record_.end_ns = tracer.NowNs();
  t_current_span = saved_parent_;
  tracer.Record(record_);
}

void RecordInterval(const char* name, Clock::time_point start,
                    Clock::time_point end, double attr) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  const Clock::time_point now = Clock::now();
  SpanRecord record;
  record.name = name;
  record.id = tracer.NextId();
  record.parent = t_current_span;
  record.action = t_current_action;
  record.end_ns = tracer.NowNs() -
                  std::chrono::duration_cast<std::chrono::nanoseconds>(now - end)
                      .count();
  record.start_ns =
      record.end_ns -
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  record.attr = attr;
  tracer.Record(record);
}

ActionScope::ActionScope(int64_t id) : saved_(t_current_action) {
  t_current_action = id;
}

ActionScope::~ActionScope() { t_current_action = saved_; }

void TimeAction(cluster::Cluster& cluster, ActionSample* sample,
                const std::function<Status(ActionSample*)>& body) {
  Tracer& tracer = Tracer::Get();
  sample->id = tracer.NextId();
  sample->traced = tracer.enabled();
  ActionScope scope(sample->id);
  tracer.active_action.store(sample->id, std::memory_order_relaxed);
  Status status = Status::OK();
  {
    Span span("action", sample->kind);
    const Clock::time_point start = Clock::now();
    status = body(sample);
    sample->ms = MsBetween(start, Clock::now());
    span.set_attr(sample->healed ? 1.0 : 0.0);
  }
  sample->status_ok = status.ok();
  if (!status.ok()) {
    sample->failure = status.ToString();
    sample->check = nullptr;
    return;
  }
  sample->breaker_open = sample->breaker_open || cluster.health().AnyOpen();
  sample->check = [check = std::move(sample->check),
                   coverage = sample->coverage,
                   breaker_open = sample->breaker_open]() -> std::string {
    if (coverage < 1.0) {
      return breaker_open ? ""
                          : "answer covers " + std::to_string(coverage) +
                                " of the view with no breaker open";
    }
    return check ? check() : "";
  };
}

std::string CheckHistogram(const HistogramResult& h, int buckets,
                           int64_t view_rows, bool sampled) {
  if (static_cast<int>(h.counts.size()) != buckets) {
    return "histogram has " + std::to_string(h.counts.size()) +
           " buckets, planned " + std::to_string(buckets);
  }
  const int64_t tallied = h.TotalCount() + h.missing + h.out_of_range;
  if (tallied != h.rows_scanned) {
    return "histogram tallies " + std::to_string(tallied) + " of " +
           std::to_string(h.rows_scanned) + " scanned rows";
  }
  if (!sampled && h.rows_scanned != view_rows) {
    return "unsampled histogram counts " + std::to_string(h.rows_scanned) +
           " rows, the view has " + std::to_string(view_rows);
  }
  if (sampled && (h.rows_scanned <= 0 || h.rows_scanned > view_rows)) {
    return "sampled histogram scanned " + std::to_string(h.rows_scanned) +
           " of " + std::to_string(view_rows) + " rows";
  }
  return "";
}

std::string CheckHistogram2D(const Histogram2DResult& h, int64_t view_rows,
                             bool sampled) {
  int64_t bars = 0;
  for (int64_t c : h.x_counts) bars += c;
  int64_t cells = 0;
  for (int64_t c : h.xy) cells += c;
  if (static_cast<int64_t>(h.xy.size()) !=
      static_cast<int64_t>(h.x_buckets) * h.y_buckets) {
    return "2-d histogram shape mismatch";
  }
  if (cells + h.missing_y > bars) return "2-d cells exceed their bars";
  const int64_t tallied = bars + h.missing_x + h.out_of_range;
  if (tallied != h.rows_scanned) {
    return "2-d histogram tallies " + std::to_string(tallied) + " of " +
           std::to_string(h.rows_scanned) + " scanned rows";
  }
  if (!sampled && h.rows_scanned != view_rows) {
    return "unsampled 2-d histogram counts " + std::to_string(h.rows_scanned) +
           " rows, the view has " + std::to_string(view_rows);
  }
  return "";
}

std::string CheckPage(const NextItemsResult& page, const RecordOrder& order,
                      int k) {
  if (static_cast<int>(page.rows.size()) != k) {
    return "page has " + std::to_string(page.rows.size()) + " rows, asked " +
           std::to_string(k);
  }
  const auto& orient = order.orientations();
  for (size_t i = 1; i < page.rows.size(); ++i) {
    const auto& a = page.rows[i - 1].values;
    const auto& b = page.rows[i].values;
    int c = 0;
    for (size_t j = 0; j < orient.size() && c == 0; ++j) {
      c = CompareValues(a[j], b[j]);
      if (!orient[j].ascending) c = -c;
    }
    if (c >= 0) {
      return "page rows " + std::to_string(i - 1) + " and " +
             std::to_string(i) + " are not in the page's order";
    }
  }
  return "";
}

Counters Counters::Take(cluster::Cluster& cluster,
                        const std::vector<cluster::RootSession*>& sessions) {
  Counters c;
  for (const auto& worker : cluster.workers()) {
    const SortKeyCache::Stats s = worker->key_cache()->Snapshot();
    c.sortkey_hits += s.hits;
    c.sortkey_misses += s.misses;
  }
  const ComputationCache::Stats cache = cluster.shared_cache().Snapshot();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.cache_coalesced = cache.coalesced_hits;
  for (cluster::RootSession* session : sessions) {
    const RedoLog::Stats r = session->redo_log().Snapshot();
    c.redo_entries += r.entries;
    c.redo_replays += r.replays_started;
    c.redo_replayed += r.entries_replayed;
  }
  c.msgs_up = static_cast<int64_t>(cluster.network()->messages_up());
  c.bytes_up = static_cast<int64_t>(cluster.network()->bytes_received_by_root());
  c.bytes_down = static_cast<int64_t>(cluster.network()->bytes_sent_by_root());
  const cluster::QueryScheduler::Stats sched = cluster.scheduler().Snapshot();
  c.sched_submitted = sched.submitted;
  c.sched_shed = sched.shed_session_budget + sched.shed_queue_full +
                 sched.shed_unhealthy;
  c.breaker_trips = cluster.health().Snapshot().trips;
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.sortkey_hits -= o.sortkey_hits;
  d.sortkey_misses -= o.sortkey_misses;
  d.cache_hits -= o.cache_hits;
  d.cache_misses -= o.cache_misses;
  d.cache_coalesced -= o.cache_coalesced;
  d.redo_entries -= o.redo_entries;
  d.redo_replays -= o.redo_replays;
  d.redo_replayed -= o.redo_replayed;
  d.msgs_up -= o.msgs_up;
  d.bytes_up -= o.bytes_up;
  d.bytes_down -= o.bytes_down;
  d.sched_submitted -= o.sched_submitted;
  d.sched_shed -= o.sched_shed;
  d.faults_dropped -= o.faults_dropped;
  d.breaker_trips -= o.breaker_trips;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  sortkey_hits += o.sortkey_hits;
  sortkey_misses += o.sortkey_misses;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_coalesced += o.cache_coalesced;
  redo_entries += o.redo_entries;
  redo_replays += o.redo_replays;
  redo_replayed += o.redo_replayed;
  msgs_up += o.msgs_up;
  bytes_up += o.bytes_up;
  bytes_down += o.bytes_down;
  sched_submitted += o.sched_submitted;
  sched_shed += o.sched_shed;
  faults_dropped += o.faults_dropped;
  breaker_trips += o.breaker_trips;
  return *this;
}

namespace {

/// Probe-private sort-key caches, one per worker: probes of table sketches
/// get warm keys like the worker's own scans do, without touching the
/// worker caches whose hit rate the run reports.
SortKeyCache* ProbeKeyCache(size_t worker) {
  static std::mutex mutex;
  static std::map<size_t, std::unique_ptr<SortKeyCache>>* caches =
      new std::map<size_t, std::unique_ptr<SortKeyCache>>();
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = (*caches)[worker];
  if (slot == nullptr) slot = std::make_unique<SortKeyCache>(64u << 20);
  return slot.get();
}

}  // namespace

void Probe(cluster::Cluster& cluster, const ProbeSpec& spec) {
  if (!Tracer::Get().enabled()) return;
  Span probe("probe", CategoryName(spec.category));
  probe.set_attr(spec.rate);
  const auto& workers = cluster.workers();
  AnySummary merged;
  for (size_t w = 0; w < workers.size(); ++w) {
    auto dataset = workers[w]->GetDataSet(spec.dataset_id);
    if (!dataset.ok()) continue;
    cluster::Worker* worker = workers[w].get();
    SketchOptions options;
    // The seed the root's ParallelDataSet hands to worker w.
    options.seed = MixSeed(spec.seed, w);
    options.aux_pool = [worker] { return worker->pool(); };
    options.key_cache = [w] { return ProbeKeyCache(w); };
    AnySummary tree;
    {
      Span span("core.worker_tree", CategoryName(spec.category));
      auto stream = dataset.value()->RunSketch(spec.sketch, options);
      auto last = stream->BlockingLast();
      if (stream->final_status().ok() && last.has_value()) tree = last->value;
    }
    if (!tree.empty()) {
      Span span("core.merge");
      merged = merged.empty() ? tree : spec.sketch.Merge(merged, tree);
    }
    auto parallel = std::dynamic_pointer_cast<ParallelDataSet>(dataset.value());
    if (parallel == nullptr) continue;
    const auto& children = parallel->children();
    for (size_t p = 0; p < children.size(); ++p) {
      auto leaf = std::dynamic_pointer_cast<LocalDataSet>(children[p]);
      if (leaf == nullptr) continue;
      auto table = leaf->GetTable();
      if (!table.ok()) continue;
      AnySummary summary;
      {
        Span span("sketch.summarize", CategoryName(spec.category));
        span.set_attr(spec.rate);
        summary = spec.sketch.Summarize(
            *table.value(), MixSeed(options.seed, p),
            SketchContext{options.aux_pool, options.key_cache, nullptr});
      }
      std::vector<uint8_t> bytes;
      {
        Span span("sketch.serialize");
        bytes = spec.sketch.Serialize(summary);
        span.set_attr(static_cast<double>(bytes.size()));
      }
      Span span("sketch.deserialize");
      (void)spec.sketch.Deserialize(bytes);
    }
  }
}

void ProbeScheduler(cluster::Cluster& cluster, int session_id) {
  if (!Tracer::Get().enabled()) return;
  Span span("cluster.sched_probe");
  (void)cluster.scheduler().Execute(session_id, nullptr,
                                    [] { return Status::OK(); });
}

std::vector<LocalDataSet::Loader> CountedLoaders(
    std::vector<LocalDataSet::Loader> loaders) {
  std::vector<LocalDataSet::Loader> wrapped;
  wrapped.reserve(loaders.size());
  for (auto& loader : loaders) {
    wrapped.push_back([loader = std::move(loader)]() -> Result<TablePtr> {
      Span span("storage.load");
      Result<TablePtr> table = loader();
      if (table.ok()) span.set_attr(table.value()->num_rows());
      return table;
    });
  }
  return wrapped;
}

StreamOutcome AwaitStream(const StreamPtr<PartialResult<HistogramResult>>& stream,
                          Clock::time_point start) {
  struct Sink {
    std::mutex mutex;
    Clock::time_point first;
    int partials = 0;
  };
  auto sink = std::make_shared<Sink>();
  stream->Subscribe([sink](const PartialResult<HistogramResult>&) {
    std::lock_guard<std::mutex> lock(sink->mutex);
    if (sink->partials++ == 0) sink->first = Clock::now();
  });
  StreamOutcome out;
  out.last = stream->BlockingLast();
  out.status = stream->final_status();
  if (out.status.ok() && !out.last.has_value()) {
    out.status = Status::Internal("empty stream");
  }
  if (!out.status.ok()) return out;
  const Clock::time_point done = Clock::now();
  std::lock_guard<std::mutex> lock(sink->mutex);
  out.first_partial_ms = MsBetween(start, sink->first);
  RecordInterval("reactive.first_partial", start, sink->first);
  RecordInterval("reactive.stream", start, done, sink->partials);
  return out;
}

const char* ScriptKindName(int kind) {
  static const char* names[] = {"hist_cdf",  "heat_map", "stacked",
                                "table",     "next_page", "scroll",
                                "heavy_hitters", "distinct"};
  return names[kind];
}

Category ScriptKindCategory(int kind) {
  if (kind <= kStacked) return Category::kChart;
  if (kind <= kScroll) return Category::kTable;
  return Category::kOther;
}

std::string CheckHeavyHitters(const HeavyHittersResult& hh) {
  return hh.Select(1.0 / (2.0 * kHeavyHitterK)).empty()
             ? "no heavy hitter above 1/(2k)"
             : "";
}

std::string CheckDistinctOrigins(const HllResult& hll) {
  const double estimate = hll.Estimate();
  return std::abs(estimate - kAirports) > 0.1 * kAirports
             ? "distinct count " + std::to_string(estimate) +
                   ", expected about 347"
             : "";
}

Script MakeScript(uint64_t seed, uint64_t salt, int restart_workers) {
  Random rng(MixSeed(seed, salt));
  Script script;
  const int first = static_cast<int>(rng.NextUint64(kDaysSpanned - 8 * 365));
  const int second = first + static_cast<int>(rng.NextUint64(5 * 365));
  script.windows = {{first, first + 8 * 365}, {second, second + 3 * 365}};
  for (int v = 0; v < 3; ++v) {
    for (int k = 0; k < kNumKinds; ++k) {
      if (k == kDistinct && v == 2) continue;
      ScriptStep step{k, v, 0, -1, -1};
      if (k == kScroll) step.q = 0.05 + 0.85 * rng.NextDouble();
      if (restart_workers > 0) {
        const auto worker = static_cast<int>(
            rng.NextUint64(static_cast<uint64_t>(restart_workers)));
        if (k != kHistCdf && k != kScroll) {
          step.restart = worker;
        } else if (k == kHistCdf && v == 1) {
          step.evict = worker;
        }
      }
      script.steps.push_back(step);
    }
  }
  return script;
}

std::string Script::Digest() const {
  std::string text;
  for (const auto& w : windows) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "|%d-%d", w.first, w.second);
    text += buf;
  }
  for (const ScriptStep& s : steps) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "|%s@%d:%.6fr%de%d", ScriptKindName(s.kind),
                  s.view, s.q, s.restart, s.evict);
    text += buf;
  }
  return Hex(Fnv(text));
}

Result<std::vector<ScriptView>> PlanScriptViews(
    const Spreadsheet& base, const Script& script,
    const ScreenResolution& screen) {
  struct Columns {
    const char *hist, *heat_x, *heat_y, *stack_x, *stack_y;
    RecordOrder order;
  };
  const RecordOrder by_delay({{"DepDelay", false}});
  const Columns columns[3] = {
      {"DepDelay", "Distance", "AirTime", "Distance", "Airline", by_delay},
      {"Distance", "DepDelay", "ArrDelay", "CrsDepTime", "Airline",
       RecordOrder({{"Airline", true}, {"Distance", false}})},
      {"ArrDelay", "CrsDepTime", "DepDelay", "TaxiOut", "OriginState",
       by_delay}};
  std::vector<ScriptView> views(script.windows.size() + 1);
  views[0].sheet.emplace(base);
  for (size_t v = 1; v < views.size(); ++v) {
    const auto& [from, to] = script.windows[v - 1];
    const double lo = static_cast<double>(kEpochStart + from * kDayMs);
    const double hi = static_cast<double>(kEpochStart + to * kDayMs) - 1;
    HV_ASSIGN_OR_RETURN(Spreadsheet zoom,
                        views[v - 1].sheet->FilterRange("FlightDate", lo, hi));
    views[v].sheet.emplace(std::move(zoom));
  }
  for (size_t v = 0; v < views.size(); ++v) {
    ScriptView& view = views[v];
    const Columns& c = columns[v];
    Spreadsheet& s = *view.sheet;
    view.id = s.dataset_id();
    HV_ASSIGN_OR_RETURN(view.rows, s.RowCount());
    view.hist_column = c.hist;
    view.heat_x = c.heat_x;
    view.heat_y = c.heat_y;
    view.stack_x = c.stack_x;
    view.stack_y = c.stack_y;
    view.order = c.order;
    view.display = {"FlightDate", "Origin", "Dest"};

    HV_ASSIGN_OR_RETURN(RangeResult range, s.ColumnRange(c.hist));
    const HistogramPlan hist = PlanHistogram(range, screen);
    view.hist_buckets = hist.buckets.count();
    view.hist = std::make_shared<SampledHistogramSketch>(c.hist, hist.buckets,
                                                         hist.sample_rate);
    const HistogramPlan cdf = PlanCdf(range, screen);
    view.cdf_buckets = cdf.buckets.count();
    view.cdf = std::make_shared<SampledHistogramSketch>(c.hist, cdf.buckets,
                                                        cdf.sample_rate);

    HV_ASSIGN_OR_RETURN(RangeResult x, s.ColumnRange(c.heat_x));
    HV_ASSIGN_OR_RETURN(RangeResult y, s.ColumnRange(c.heat_y));
    const HeatMapPlan heat =
        PlanHeatMap(static_cast<uint64_t>(x.TotalRows()), screen);
    view.heat = std::make_shared<Histogram2DSketch>(
        c.heat_x, Buckets(PlanNumericBuckets(x, heat.x_bins)), c.heat_y,
        Buckets(PlanNumericBuckets(y, heat.y_bins)), heat.sample_rate);

    HV_ASSIGN_OR_RETURN(RangeResult sx, s.ColumnRange(c.stack_x));
    HV_ASSIGN_OR_RETURN(RangeResult sy, s.ColumnRange(c.stack_y));
    HV_ASSIGN_OR_RETURN(BottomKResult sy_strings, s.DistinctStrings(c.stack_y));
    const int x_count = HistogramBucketCount(screen);
    view.stack = std::make_shared<Histogram2DSketch>(
        c.stack_x, Buckets(PlanNumericBuckets(sx, x_count)), c.stack_y,
        Buckets(PlanStringBuckets(sy_strings, sy,
                                  ChartDefaults::kMaxStackColors)),
        SampleRateForSize(StackedHistogramSampleSize(screen.height, x_count),
                          static_cast<uint64_t>(sx.TotalRows())));
  }
  return views;
}

std::optional<std::vector<Value>> NextPageStart(const NextItemsResult& page,
                                                const RecordOrder& order) {
  if (page.rows.empty()) return std::nullopt;
  const auto& last = page.rows.back().values;
  return std::vector<Value>(
      last.begin(),
      last.begin() + static_cast<long>(order.orientations().size()));
}

std::string Hex(uint64_t v) {
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(v));
  return hex;
}

uint64_t Fnv(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace hvbench
