// hvbench: end-to-end and per-layer benchmark of the Hillview reproduction.
//
//   hvbench --workload explore|dashboard|heal --seed N --seconds S
//           --trace 0|1 [--out-dir DIR]
//
// A run sets its workload up three times (data generation or HVCF spill,
// partition materialization and one untimed warm-up pass of the script) and
// reports the median as setup_s. It then replays the workload's seeded
// script, pass after pass, until S seconds of timed passes have run and the
// p95 has at least ten samples beyond it; a run that cannot gather them
// within 3 S seconds fails rather than report a p95 it cannot back. Which
// actions a pass runs never depends on the machine's speed, only how many
// passes fit. Every answer is checked between passes, outside the timed
// window.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced passes and prints the per-layer metrics, computed from the spans of
// the traced passes; its end-to-end numbers are never reported. The last line
// of standard output is one JSON object.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.h"

namespace hvbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinBeyondP95 = 10;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Refuses builds whose timings are not benchmarks.
bool BuildIsBenchmarkable() {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "refusing to run: unoptimised build\n");
  return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "refusing to run: sanitizer build\n");
  return false;
#else
  return true;
#endif
}

std::vector<double> Field(const std::vector<ActionSample>& samples,
                          bool (*keep)(const ActionSample&),
                          double ActionSample::*field) {
  std::vector<double> out;
  for (const ActionSample& s : samples) {
    if (keep(s)) out.push_back(s.*field);
  }
  return out;
}

/// Per-layer metrics from the spans and counter deltas of traced passes.
std::vector<Metric> LayerMetrics(const std::vector<ActionSample>& timed,
                                 const std::vector<ActionSample>& heals,
                                 const Counters& traced_delta,
                                 const Counters& heal_delta,
                                 std::vector<std::string>* not_applicable) {
  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  std::set<int64_t> traced_actions;
  int64_t traced_count = 0;
  std::vector<double> traced_ms, untraced_ms;
  int transport_retries = 0;
  int64_t prep_hits = 0, prep_lookups = 0;
  for (const ActionSample& s : timed) {
    (s.traced ? traced_ms : untraced_ms).push_back(s.ms);
    if (!s.traced) continue;
    traced_actions.insert(s.id);
    ++traced_count;
    transport_retries += s.transport_retries;
    prep_hits += s.prep_hits;
    prep_lookups += s.prep_lookups;
  }
  std::set<int64_t> heal_ids;
  for (const ActionSample& s : heals) {
    if (s.healed) heal_ids.insert(s.id);
  }
  for (const ActionSample& s : timed) {
    if (s.traced && s.healed) heal_ids.insert(s.id);
  }

  std::vector<double> load_ms, run_sketch_ms, render_ms, sched_ms, tree_ms,
      merge_us, ser_us, deser_us, summary_kb, first_frac, partials, rates;
  std::map<int64_t, double> summarize_full, summarize_sampled;  // by probe
  std::map<int64_t, double> slowest_tree;                       // by action
  std::map<int64_t, std::vector<double>> queries;               // by action
  std::map<int64_t, double> first_partial;                      // by stream
  double loads_in_heals = 0;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    const bool in_heal = heal_ids.count(s.action) > 0;
    if (name == "storage.load") {
      if (in_heal) {
        load_ms.push_back(s.ms());
        loads_in_heals += 1;
      }
      continue;
    }
    if (!traced_actions.count(s.action)) continue;
    if (name == "cluster.run_sketch") {
      run_sketch_ms.push_back(s.ms());
      queries[s.action].push_back(s.ms());
    } else if (name == "render") {
      render_ms.push_back(s.ms());
    } else if (name == "cluster.sched_probe") {
      sched_ms.push_back(s.ms());
    } else if (name == "core.worker_tree") {
      tree_ms.push_back(s.ms());
      slowest_tree[s.action] = std::max(slowest_tree[s.action], s.ms());
    } else if (name == "core.merge") {
      merge_us.push_back(s.ms() * 1e3);
    } else if (name == "sketch.serialize") {
      ser_us.push_back(s.ms() * 1e3);
      summary_kb.push_back(s.attr / 1024.0);
    } else if (name == "sketch.deserialize") {
      deser_us.push_back(s.ms() * 1e3);
    } else if (name == "sketch.summarize") {
      if (std::string(s.kind) != "chart") continue;
      (s.attr < 1.0 ? summarize_sampled : summarize_full)[s.parent] += s.ms();
    } else if (name == "probe") {
      if (std::string(s.kind) == "chart") rates.push_back(s.attr);
    } else if (name == "reactive.first_partial") {
      first_partial[s.action] = s.ms();
    } else if (name == "reactive.stream") {
      partials.push_back(s.attr);
      auto it = first_partial.find(s.action);
      if (it != first_partial.end() && s.ms() > 0) {
        first_frac.push_back(it->second / s.ms());
      }
    }
  }
  std::vector<double> overhead_ms;
  for (const auto& [action, ms] : queries) {
    auto tree = slowest_tree.find(action);
    if (ms.size() == 1 && tree != slowest_tree.end()) {
      overhead_ms.push_back(ms[0] - tree->second);
    }
  }
  auto values = [](const std::map<int64_t, double>& m) {
    std::vector<double> v;
    for (const auto& kv : m) v.push_back(kv.second);
    return v;
  };
  const double heal_count = static_cast<double>(heal_ids.size());
  const double n = static_cast<double>(traced_count);
  const Counters& d = traced_delta;
  const double lookups = static_cast<double>(d.cache_hits + d.cache_misses +
                                             d.cache_coalesced);

  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const char* unit,
                 bool applicable) {
    if (!applicable) not_applicable->push_back(name);
    m.push_back({name, applicable ? value : 0.0, unit});
  };
  add("storage.loads_per_heal", Ratio(loads_in_heals, heal_count), "count",
      heal_count > 0);
  add("storage.load_ms", Quantile(load_ms, 0.5), "ms", !load_ms.empty());
  add("storage.sortkey_hit_frac",
      Ratio(d.sortkey_hits, d.sortkey_hits + d.sortkey_misses), "fraction",
      d.sortkey_hits + d.sortkey_misses > 0);
  add("sketch.summarize_ms", Quantile(values(summarize_full), 0.5), "ms",
      !summarize_full.empty());
  add("sketch.sampled_summarize_ms", Quantile(values(summarize_sampled), 0.5),
      "ms", !summarize_sampled.empty());
  add("sketch.sample_rate", Mean(rates), "fraction", !rates.empty());
  add("sketch.summary_kb", Mean(summary_kb), "KiB", !summary_kb.empty());
  add("sketch.serialize_us", Mean(ser_us), "us", !ser_us.empty());
  add("sketch.deserialize_us", Mean(deser_us), "us", !deser_us.empty());
  add("core.worker_tree_ms", Quantile(tree_ms, 0.5), "ms", !tree_ms.empty());
  add("core.merge_us", Mean(merge_us), "us", !merge_us.empty());
  add("core.sketches_per_action", Ratio(d.redo_entries, n), "count", n > 0);
  add("core.redo_entries_per_heal",
      Ratio(static_cast<double>(heal_delta.redo_replayed), heal_count),
      "count", heal_count > 0);
  add("reactive.partials_per_query", Mean(partials), "count",
      !partials.empty());
  add("reactive.first_partial_frac", Quantile(first_frac, 0.5), "fraction",
      !first_frac.empty());
  add("cluster.query_ms", Quantile(run_sketch_ms, 0.5), "ms",
      !run_sketch_ms.empty());
  add("cluster.overhead_ms", Quantile(overhead_ms, 0.5), "ms",
      !overhead_ms.empty());
  add("cluster.sched_wait_ms", Quantile(sched_ms, 0.5), "ms",
      !sched_ms.empty());
  add("cluster.shed_frac", Ratio(d.sched_shed, d.sched_submitted), "fraction",
      d.sched_submitted > 0);
  add("cluster.cache_hit_frac", Ratio(d.cache_hits, lookups), "fraction",
      lookups > 0);
  add("cluster.cache_coalesced_frac", Ratio(d.cache_coalesced, lookups),
      "fraction", lookups > 0);
  add("cluster.msgs_up_per_action", Ratio(d.msgs_up, n), "count", n > 0);
  add("cluster.kb_down_per_action", Ratio(d.bytes_down / 1024.0, n), "KiB",
      n > 0);
  add("cluster.replays_per_heal",
      Ratio(static_cast<double>(heal_delta.redo_replays), heal_count),
      "count", heal_count > 0);
  add("cluster.retries_per_action",
      Ratio(static_cast<double>(d.faults_dropped + transport_retries), n),
      "count", n > 0);
  add("cluster.breaker_trips", static_cast<double>(d.breaker_trips), "count",
      true);
  add("spreadsheet.prep_hit_frac",
      Ratio(static_cast<double>(prep_hits), static_cast<double>(prep_lookups)),
      "fraction", prep_lookups > 0);
  add("render.ms", Quantile(render_ms, 0.5), "ms", !render_ms.empty());
  add("trace.overhead_frac",
      Ratio(Quantile(traced_ms, 0.5), Quantile(untraced_ms, 0.5)) - 1.0,
      "fraction", !traced_ms.empty() && !untraced_ms.empty());
  return m;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const RunOptions& opts) {
  if (!BuildIsBenchmarkable()) return 2;
  std::unique_ptr<Workload> workload;
  if (opts.workload == "explore") {
    workload = MakeExplore(opts.seed);
  } else if (opts.workload == "dashboard") {
    workload = MakeDashboard(opts.seed);
  } else if (opts.workload == "heal") {
    workload = MakeHeal(opts.seed, opts.out_dir);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  const ThreadPlan plan = workload->plan();
  const int nproc = Nproc();
  std::printf("thread plan: %d workers x %d pool threads + %d client threads "
              "= %d threads, nproc %d\n",
              plan.workers, plan.threads_per_worker, plan.client_threads,
              plan.total(), nproc);
  if (plan.total() > nproc) {
    std::fprintf(stderr, "refusing to run: %d threads exceed nproc %d\n",
                 plan.total(), nproc);
    return 2;
  }
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    const Status s = workload->Setup();
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
  }
  std::printf("sizes: %s\n", workload->Describe().c_str());

  // Timed passes. Each pass is timed as a whole; its answer checks run
  // after the clock stops.
  Tracer& tracer = Tracer::Get();
  std::vector<ActionSample> timed;
  double timed_s = 0;
  Counters all_delta, traced_delta;
  std::string failure;
  for (int iteration = 1;; ++iteration) {
    const size_t beyond_p95 = timed.size() / 20;
    if (timed_s >= opts.seconds && beyond_p95 >= kMinBeyondP95) break;
    if (timed_s >= 3 * opts.seconds) {
      std::fprintf(stderr,
                   "only %zu of %zu timed actions lie beyond the p95 after "
                   "%.1f s; action_p95_ms needs %d\n",
                   beyond_p95, timed.size(), timed_s, kMinBeyondP95);
      return 1;
    }
    const bool traced = opts.trace && iteration % 2 == 0;
    tracer.set_enabled(traced);
    const Counters before = workload->Snapshot();
    const size_t first = timed.size();
    const Clock::time_point start = Clock::now();
    const Status s = workload->RunCycle(iteration, &timed);
    timed_s += MsBetween(start, Clock::now()) / 1e3;
    const Counters delta = workload->Snapshot() - before;
    tracer.set_enabled(false);
    if (!s.ok()) {
      std::fprintf(stderr, "pass %d failed: %s\n", iteration,
                   s.ToString().c_str());
      return 1;
    }
    all_delta += delta;
    if (traced) traced_delta += delta;
    for (size_t i = first; i < timed.size(); ++i) {
      ActionSample& a = timed[i];
      if (a.status_ok && a.check) a.failure = a.check();
      a.check = nullptr;
      a.correct = a.status_ok && a.failure.empty();
    }
  }

  // Heal probes: actions that heal by redo-log replay after a seeded restart.
  tracer.set_enabled(opts.trace);
  std::vector<ActionSample> heals;
  const Counters heal_before = workload->Snapshot();
  const Status heal_status = workload->HealProbes(&heals);
  Counters heal_delta = workload->Snapshot() - heal_before;
  tracer.set_enabled(false);
  if (!heal_status.ok()) {
    std::fprintf(stderr, "heal probes failed: %s\n",
                 heal_status.ToString().c_str());
    return 1;
  }
  for (ActionSample& a : heals) {
    if (a.status_ok && a.check) a.failure = a.check();
    a.check = nullptr;
    a.correct = a.status_ok && a.failure.empty();
  }
  failure = workload->FinalCheck();

  // Every action is checked: timed passes and heal probes alike.
  int64_t attempted = 0, ok = 0, full = 0;
  std::map<std::string, int> failures;
  for (const auto* list : {&timed, &heals}) {
    for (const ActionSample& a : *list) {
      ++attempted;
      if (a.correct) ++ok;
      if (a.coverage >= 1.0 && a.status_ok) ++full;
      if (!a.correct) ++failures[std::string(a.kind) + ": " + a.failure];
    }
  }
  for (const auto& [what, count] : failures) {
    std::printf("FAILED x%d %s\n", count, what.c_str());
  }
  if (!failure.empty()) std::printf("FAILED %s\n", failure.c_str());

  std::vector<ActionSample> healed_samples;
  for (const auto* list : {&timed, &heals}) {
    for (const ActionSample& a : *list) {
      if (a.healed && a.status_ok) healed_samples.push_back(a);
    }
  }
  // The heal workload heals inside its script; the others only in probes.
  if (opts.workload == "heal") heal_delta = traced_delta;

  auto any = [](const ActionSample&) { return true; };
  auto chart = [](const ActionSample& a) {
    return a.category == Category::kChart;
  };
  auto table = [](const ActionSample& a) {
    return a.category == Category::kTable;
  };
  auto streamed = [](const ActionSample& a) { return a.first_partial_ms >= 0; };
  const std::vector<double> all_ms = Field(timed, any, &ActionSample::ms);
  std::printf("fingerprint: %s\n", workload->Fingerprint().c_str());
  std::printf("samples: %zu timed actions (%zu beyond p95) in %.3f s; "
              "%zu healed; %d set-ups\n",
              timed.size(), timed.size() / 20, timed_s, healed_samples.size(),
              kSetupRepeats);

  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics = {
        {"action_p50_ms", Quantile(all_ms, 0.5), "ms"},
        {"action_p95_ms", Quantile(all_ms, 0.95), "ms"},
        {"chart_p50_ms",
         Quantile(Field(timed, chart, &ActionSample::ms), 0.5), "ms"},
        {"table_p50_ms",
         Quantile(Field(timed, table, &ActionSample::ms), 0.5), "ms"},
        {"first_partial_p50_ms",
         Quantile(Field(timed, streamed, &ActionSample::first_partial_ms), 0.5),
         "ms"},
        {"heal_p50_ms",
         Quantile(Field(healed_samples, any, &ActionSample::ms), 0.5), "ms"},
        {"actions_per_s", Ratio(static_cast<double>(timed.size()), timed_s),
         "1/s"},
        {"root_kb_per_action",
         Ratio(all_delta.bytes_up / 1024.0, static_cast<double>(timed.size())),
         "KiB"},
        {"ok_frac", Ratio(ok, attempted), "fraction"},
        {"full_coverage_frac", Ratio(full, attempted), "fraction"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  } else {
    std::vector<std::string> not_applicable;
    metrics = LayerMetrics(timed, heals, traced_delta, heal_delta,
                           &not_applicable);
    std::string list;
    for (const std::string& name : not_applicable) list += " " + name;
    std::printf("not applicable on %s (reported as 0):%s\n",
                opts.workload.c_str(), list.empty() ? " none" : list.c_str());
    if (!opts.out_dir.empty()) {
      const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                               std::to_string(opts.seed) + ".jsonl";
      if (tracer.WriteJsonl(path)) {
        std::printf("trace: %zu spans in %s\n", tracer.Spans().size(),
                    path.c_str());
      } else {
        std::printf("trace: could not write %s\n", path.c_str());
      }
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = ok == attempted && failure.empty();
  workload.reset();
  PrintResult(correct, attempted, attempted - ok, metrics);
  return 0;
}

}  // namespace
}  // namespace hvbench

int main(int argc, char** argv) {
  hvbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || opts.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: hvbench --workload explore|dashboard|heal --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return hvbench::Run(opts);
}
