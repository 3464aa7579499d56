// Shared machinery of the hvbench benchmark: the span tracer, action
// samples, answer checks, per-layer probes and the counter snapshots that
// the three workloads (explore, dashboard, heal) report through.
//
// The benchmark drives the program only through its public entry points
// (Spreadsheet, RootSession, QueryScheduler, Worker, IDataSet, AnySketch,
// render/chart.h and the Snapshot()/Stats structs); every span is recorded
// here, around those calls, never inside the program.
#ifndef HVBENCH_BENCH_H_
#define HVBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/root.h"
#include "core/any_sketch.h"
#include "core/dataset.h"
#include "sketch/heavy_hitters.h"
#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "sketch/hyperloglog.h"
#include "sketch/next_items.h"
#include "spreadsheet/spreadsheet.h"
#include "storage/row_order.h"
#include "util/random.h"
#include "util/status.h"

namespace hvbench {

using namespace hillview;  // NOLINT: the benchmark is a client of one library

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Tracing. Spans are kept in memory and written out when the run ends. Each
// span has a name, start, end, parent span and action id; `attr` carries one
// number a span measures besides its duration (bytes, a sample rate, a
// partial count). Tracing is off in untraced runs and in the untraced half of
// a traced run, and then a Span costs one relaxed load.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  const char* kind = "";  // action kind, or the probed sketch's category
  int64_t id = 0;
  int64_t parent = 0;
  int64_t action = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double attr = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  void Record(const SpanRecord& span);
  std::vector<SpanRecord> Spans() const;
  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

  /// The action the single client thread is running, for spans opened on
  /// worker threads (partition loads) that cannot see the client's stack.
  std::atomic<int64_t> active_action{0};

 private:
  Tracer() : epoch_(Clock::now()) {}
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{0};
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction, records on destruction (or End()).
/// Nested spans on one thread take the enclosing span as their parent.
class Span {
 public:
  explicit Span(const char* name, const char* kind = "");
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_attr(double v) { record_.attr = v; }
  void End();

 private:
  SpanRecord record_;
  int64_t saved_parent_ = 0;
  bool active_ = false;
};

/// Records a span over [start, end] under the calling thread's current span
/// and action, for intervals that do not nest as a scope (a stream's wait for
/// its first partial result).
void RecordInterval(const char* name, Clock::time_point start,
                    Clock::time_point end, double attr = 0);

/// Marks the calling thread as running action `id` (0 = none) for the
/// lifetime of the scope; spans opened meanwhile carry that action id.
class ActionScope {
 public:
  explicit ActionScope(int64_t id);
  ~ActionScope();
  ActionScope(const ActionScope&) = delete;
  ActionScope& operator=(const ActionScope&) = delete;

 private:
  int64_t saved_;
};

// ---------------------------------------------------------------------------
// Actions and answer checks.
// ---------------------------------------------------------------------------

enum class Category { kChart, kTable, kOther };

/// One user gesture, timed from the gesture to its final answer. Its answer
/// check is deferred (`check`) and runs outside the timed window.
struct ActionSample {
  const char* kind = "";
  Category category = Category::kOther;
  int64_t id = 0;
  bool traced = false;
  double ms = 0;
  double first_partial_ms = -1;  // streamed histograms only
  double coverage = 1.0;
  bool healed = false;           // had to heal by redo-log replay
  bool status_ok = false;
  bool breaker_open = false;     // a breaker was open when it answered
  int transport_retries = 0;
  // Spreadsheet preparation-cache lookups made during the action.
  int64_t prep_hits = 0;
  int64_t prep_lookups = 0;
  std::function<std::string()> check;  // empty string = correct
  bool correct = false;
  std::string failure;
};

/// Fills sample.ms / status around `body` and records the action span.
/// `body` returns the query status and sets the coverage, the answer check
/// and the other fields. After the clock stops, TimeAction notes whether a
/// breaker of `cluster` is open and wraps the check in the coverage rule:
/// an answer must cover the whole view unless a breaker was open.
void TimeAction(cluster::Cluster& cluster, ActionSample* sample,
                const std::function<Status(ActionSample*)>& body);

/// Check helpers. Each returns an empty string when the answer is correct.
std::string CheckHistogram(const HistogramResult& h, int buckets,
                           int64_t view_rows, bool sampled);
std::string CheckHistogram2D(const Histogram2DResult& h, int64_t view_rows,
                             bool sampled);
std::string CheckPage(const NextItemsResult& page, const RecordOrder& order,
                      int k);

// ---------------------------------------------------------------------------
// Counter snapshots of the program's Stats structs, for per-layer deltas.
// ---------------------------------------------------------------------------

struct Counters {
  int64_t sortkey_hits = 0, sortkey_misses = 0;
  int64_t cache_hits = 0, cache_misses = 0, cache_coalesced = 0;
  int64_t redo_entries = 0, redo_replays = 0, redo_replayed = 0;
  int64_t msgs_up = 0, bytes_up = 0, bytes_down = 0;
  int64_t sched_submitted = 0, sched_shed = 0;
  int64_t faults_dropped = 0, breaker_trips = 0;

  static Counters Take(cluster::Cluster& cluster,
                       const std::vector<cluster::RootSession*>& sessions);
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs only). The probe re-issues an action's
// vizketch one level down the tree: per worker through IDataSet::RunSketch on
// Worker::GetDataSet, then per partition through AnySketch::Summarize,
// Serialize/Deserialize and Merge.
// ---------------------------------------------------------------------------

struct ProbeSpec {
  std::string dataset_id;
  AnySketch sketch;
  uint64_t seed = 0;
  double rate = 1.0;
  Category category = Category::kOther;
};

void Probe(cluster::Cluster& cluster, const ProbeSpec& spec);

/// A no-op query through the fair scheduler: its span is the grant wait.
void ProbeScheduler(cluster::Cluster& cluster, int session_id);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct ThreadPlan {
  int workers = 0;
  int threads_per_worker = 0;
  int client_threads = 0;
  int total() const { return workers * threads_per_worker + client_threads; }
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

/// A workload owns its deployment. Setup() builds it and runs one untimed
/// warm-up pass of the script; RunCycle() replays the script once — the same
/// actions in the same order on every pass, with fresh sketch seeds — and
/// appends one sample per action.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual ThreadPlan plan() const = 0;
  /// One line of sizes: rows, partitions, screen, sample rates, working set.
  virtual std::string Describe() const = 0;
  virtual Status Setup() = 0;
  virtual void Teardown() = 0;
  virtual Status RunCycle(int iteration, std::vector<ActionSample>* out) = 0;
  /// Digest of the action script (and, for heal, the per-pass fault
  /// verdicts): equal for equal seeds, whatever the machine's speed.
  virtual std::string Fingerprint() const = 0;
  /// Times actions that must heal by redo-log replay after a seeded worker
  /// restart. Workloads whose script already heals return no samples.
  virtual Status HealProbes(std::vector<ActionSample>* out) = 0;
  virtual Counters Snapshot() = 0;
  /// Workload-specific consistency failures found after the timed phase.
  virtual std::string FinalCheck() { return ""; }
};

/// Waits for a streamed histogram to complete. `first_partial_ms` is the
/// time from `start` to its first partial result (-1 when the stream failed
/// or stayed empty, which `status` then reports); records the
/// reactive.first_partial and reactive.stream spans.
struct StreamOutcome {
  std::optional<PartialResult<HistogramResult>> last;
  Status status = Status::OK();
  double first_partial_ms = -1;
};
StreamOutcome AwaitStream(const StreamPtr<PartialResult<HistogramResult>>& stream,
                          Clock::time_point start);

// The synthetic flights table (workload/flights.cc): flight dates are
// uniform over 20 years from 1999-01-01, and Origin takes every one of its
// 347 airports in any view of a few hundred thousand rows.
inline constexpr int64_t kDayMs = 86'400'000LL;
inline constexpr int64_t kEpochStart = 915'148'800'000LL;
inline constexpr int kDaysSpanned = 20 * 365;
inline constexpr double kAirports = 347;

/// The analyst's actions on one zoom view, in script order; explore runs
/// them through the Spreadsheet, heal through RootSession::RunSketch.
enum ScriptKind {
  kHistCdf,
  kHeatMap,
  kStacked,
  kTable,
  kNextPage,
  kScroll,
  kHeavyHitters,
  kDistinct,
  kNumKinds
};
const char* ScriptKindName(int kind);
Category ScriptKindCategory(int kind);
inline constexpr int kPageRows = 20;
inline constexpr int kHeavyHitterK = 20;

/// Heavy hitters must find an Origin above 1/(2k); the distinct count of
/// Origin must be within 10% of the airports generated.
std::string CheckHeavyHitters(const HeavyHittersResult& hh);
std::string CheckDistinctOrigins(const HllResult& hll);

/// Every workload draws its flights table from this one seed; the run's
/// seed picks the script (zoom windows, scroll positions, tenant filters,
/// restarts, fault verdicts). Seed-to-seed differences in the data would
/// otherwise add to the run-to-run spread of every metric.
inline constexpr uint64_t kDataSeed = 0x5EED;

struct ScriptStep {
  int kind = 0;
  int view = 0;
  double q = 0;      // scroll position
  int restart = -1;  // worker restarted before the action
  int evict = -1;    // worker whose caches are evicted before the action
};

/// The analyst's script shared by explore and heal: two nested zooms on
/// FlightDate, whose days are uniform, so the row share of each view (8/20,
/// then 3/20) does not depend on the seed; then every kind of action on each
/// of the three views, 23 in all: 9 charts, 9 table actions and 5 others
/// (no distinct count on the smallest view). Odd counts put each median
/// inside one kind's cluster of samples rather than in the gap between two
/// kinds, where it would swing with the tails.
struct Script {
  std::vector<std::pair<int, int>> windows;  // [first day, last day + 1)
  std::vector<ScriptStep> steps;
  /// Digest of the script's own choices (windows, kinds, scroll positions,
  /// restart and evict targets), never of values the program computes.
  std::string Digest() const;
};

/// `salt` separates the workloads' scripts. With `restart_workers` > 0 the
/// script is a restart storm: a seeded worker restarts before every action
/// but the streamed histograms and the scrolls, and the middle view's
/// streamed histogram follows a seeded cache eviction instead.
Script MakeScript(uint64_t seed, uint64_t salt, int restart_workers);

/// One zoom view of the script, with the vizketches its charts draw,
/// planned as the Spreadsheet plans its own (render/plan.h, from the view's
/// cached preparation queries).
struct ScriptView {
  std::optional<Spreadsheet> sheet;
  std::string id;
  int64_t rows = 0;
  std::string hist_column, heat_x, heat_y, stack_x, stack_y;
  std::shared_ptr<SampledHistogramSketch> hist, cdf;
  std::shared_ptr<Histogram2DSketch> heat, stack;
  int hist_buckets = 0, cdf_buckets = 0;
  RecordOrder order;
  std::vector<std::string> display;
  std::optional<std::vector<Value>> next_start;  // set by the table action
};

/// Zooms `base` into the script's windows and plans each view; this
/// materializes every partition and every filter.
Result<std::vector<ScriptView>> PlanScriptViews(
    const Spreadsheet& base, const Script& script,
    const ScreenResolution& screen);

/// The seed of action `step` in pass `iteration`: fresh on every pass.
inline uint64_t ActionSeed(uint64_t seed, int iteration, size_t step) {
  return MixSeed(MixSeed(seed, static_cast<uint64_t>(iteration)), step);
}

/// The first `order`-many values of a page's last row: where the next page
/// starts.
std::optional<std::vector<Value>> NextPageStart(const NextItemsResult& page,
                                                const RecordOrder& order);

/// Hex form of a 64-bit digest.
std::string Hex(uint64_t v);

std::unique_ptr<Workload> MakeExplore(uint64_t seed);
std::unique_ptr<Workload> MakeDashboard(uint64_t seed);
std::unique_ptr<Workload> MakeHeal(uint64_t seed, const std::string& out_dir);

/// Wraps partition loaders with counting and timing spans ("storage.load").
std::vector<LocalDataSet::Loader> CountedLoaders(
    std::vector<LocalDataSet::Loader> loaders);

/// FNV-1a over a string, for fingerprints.
uint64_t Fnv(const std::string& s, uint64_t h = 1469598103934665603ULL);

}  // namespace hvbench

#endif  // HVBENCH_BENCH_H_
