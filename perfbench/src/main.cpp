/// \file main.cpp
/// \brief Entry point of the repo benchmark: runs one workload for a fixed
/// host-time budget in whole rounds, and prints the result as one JSON
/// line (the last line of stdout).
///
///   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
///             [--trace-out DIR] [--width W]
///   perfbench --self-test
///
/// With --trace 0 the result holds the end-to-end metrics; with --trace 1
/// it holds the per-layer metrics, and the spans are written to
/// DIR/<workload>-seed<N>.json.  See README.md for every metric.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", ";
    std::snprintf(buf, sizeof buf, "\"start_s\": %.9f, \"end_s\": %.9f",
                  s.start_s, s.end_s);
    out << buf << ", \"parent\": " << s.parent << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

const char* const kEndToEnd[] = {"setup_s",         "run_s",
                                 "peak_rss_mib",    "standard_sim_us",
                                 "aggregated_sim_us", "best_sim_us",
                                 "init_sim_us"};

/// Every per-layer metric, in BENCHMARK.json order.  A workload that does
/// not exercise a layer reports 0 for it.
std::vector<std::string> layer_metric_names() {
  std::vector<std::string> n = {
      "sparse.problem_s",      "amg.build_s",          "amg.distribute_s",
      "patterns.generate_s",   "amg.levels",           "amg.vcycles.hypre",
      "amg.vcycles.standard",  "amg.vcycles.locality", "amg.vcycles.dedup",
      "amg.reference_solve_s"};
  const char* harness_methods[] = {"hypre",          "standard",
                                   "locality",       "dedup",
                                   "dense_standard", "node_aggregated",
                                   "bruck"};
  for (const char* m : harness_methods)
    n.push_back(std::string("harness.") + m + ".host_s");
  for (const char* k : {"harness.graph_create_s", "harness.plan_rebind_s",
                        "harness.plan_cache.hits", "harness.plan_cache.misses",
                        "harness.hypre.sim_us", "simmpi.graph_create_sim_us"})
    n.push_back(k);
  for (int i = 1; i < 7; ++i)
    for (const char* f : {".sim_us", ".init_sim_us", ".global_msgs",
                          ".local_msgs", ".global_values", ".max_msg_values"})
      n.push_back(std::string("mpix.") + harness_methods[i] + f);
  for (const char* k :
       {"simmpi.link_busy_us.t0", "simmpi.link_backlog_us.t0",
        "simmpi.link_msgs.t0", "simmpi.faults.drops", "simmpi.faults.dups",
        "simmpi.faults.retransmits", "simmpi.faults.timeouts", "trace.spans",
        "trace.run_s", "trace.overhead_s"})
    n.push_back(k);
  return n;
}

std::string unit_of(const std::string& name) {
  auto ends = [&](const char* s) { return name.ends_with(s); };
  if (ends("_us")) return "us";
  if (ends("_mib")) return "MiB";
  if (ends("_s")) return "s";
  return "count";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median of each key over a list of metric maps.
Metrics medians(const std::vector<Metrics>& all) {
  std::map<std::string, std::vector<double>> cols;
  for (const auto& m : all)
    for (const auto& [k, v] : m) cols[k].push_back(v);
  Metrics out;
  for (auto& [k, v] : cols) out[k] = median(std::move(v));
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Outcome {
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  Metrics metrics;
};

/// Run one workload: setup repetitions, preparation, then whole rounds
/// until `seconds` of host time have passed.
Outcome run(std::string_view name, const Settings& s, double seconds,
            bool trace, const std::string& trace_out) {
  auto wl = make_workload(name, s);
  Tracer tracer(trace);
  Outcome out;

  std::vector<double> setup_times;
  std::vector<Metrics> setup_layers;
  for (int i = 0; i < wl->setup_reps(); ++i) {
    Metrics layer;
    Scope sc(tracer, "bench.setup");
    wl->setup(tracer, layer);
    setup_times.push_back(sc.elapsed());
    setup_layers.push_back(std::move(layer));
  }
  Metrics prep;
  wl->prepare(tracer, prep);

  // The traced run measures one untraced round first, so the tracing
  // overhead is the traced rounds' run_s minus that round's.
  std::vector<Round> rounds;
  const auto t0 = Clock::now();
  do {
    tracer.set_enabled(trace && !rounds.empty());
    Round& r = rounds.emplace_back(tracer);
    Scope sc(tracer, "bench.round");
    wl->round(r);
    std::fprintf(stderr, "perfbench: round %zu run_s %.3f\n", rounds.size(),
                 r.run_s);
  } while (seconds_since(t0) < seconds || (trace && rounds.size() < 2));

  for (const Round& r : rounds) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    // Simulated results are deterministic: every round must repeat the
    // first one exactly.
    if (r.sim != rounds.front().sim) {
      out.correct = false;
      std::fprintf(stderr, "perfbench: simulated metrics differ between rounds\n");
    }
  }

  if (!trace) {
    std::vector<double> run_s;
    for (const Round& r : rounds) run_s.push_back(r.run_s);
    out.metrics = rounds.front().sim;
    out.metrics["setup_s"] = median(setup_times);
    out.metrics["run_s"] = median(run_s);
    out.metrics["peak_rss_mib"] = peak_rss_mib();
    for (const char* k : kEndToEnd)
      if (!out.metrics.count(k) || !std::isfinite(out.metrics[k]) ||
          !(out.metrics[k] > 0.0)) {
        out.correct = false;
        std::fprintf(stderr, "perfbench: metric %s missing or not positive\n", k);
      }
    return out;
  }

  std::vector<Metrics> layers;
  std::vector<double> traced_run_s;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    layers.push_back(rounds[i].layer);
    traced_run_s.push_back(rounds[i].run_s);
  }
  Metrics layer = medians(layers);
  for (const auto& [k, v] : medians(setup_layers)) layer[k] = v;
  for (const auto& [k, v] : prep) layer[k] = v;
  layer["trace.spans"] = static_cast<double>(tracer.spans().size());
  layer["trace.run_s"] = median(traced_run_s);
  layer["trace.overhead_s"] = median(traced_run_s) - rounds.front().run_s;
  for (const std::string& k : layer_metric_names())
    out.metrics[k] = layer.count(k) ? layer[k] : 0.0;
  for (const auto& [k, v] : layer)
    if (!out.metrics.count(k)) {
      out.correct = false;
      std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n", k.c_str());
    }

  std::error_code ec;
  std::filesystem::create_directories(trace_out, ec);
  const std::string path = trace_out + "/" + std::string(name) + "-seed" +
                           std::to_string(s.seed) + ".json";
  if (!tracer.write(path)) {
    out.correct = false;
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  return out;
}

void print_result(const Outcome& o) {
  std::string line = "{\"correct\": ";
  line += o.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : o.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : -1.0);
    line += (first ? "\"" : ", \"") + k + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit_of(k) + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// The checks must bite: every workload passes untouched at self-test
/// scale, and a tampered output fails exactly the operations it touches.
int self_test() {
  struct Case {
    std::string_view workload;
    Tamper tamper;
    long want_failed;
  };
  const Case cases[] = {
      {"amg_solve", Tamper::none, 0},       {"amg_setup", Tamper::none, 0},
      {"fat_tree_mix", Tamper::none, 0},    {"fault_drop", Tamper::none, 0},
      {"amg_solve", Tamper::solution, 4},   {"amg_setup", Tamper::count, 1},
      {"fat_tree_mix", Tamper::count, 3},   {"fault_drop", Tamper::count, 2}};
  int bad = 0;
  for (const Case& c : cases) {
    Settings s;
    s.small = true;
    s.tamper = c.tamper;
    const Outcome o = run(c.workload, s, 0.0, false, "");
    const bool ok = o.correct && o.attempted > 0 && o.failed == c.want_failed;
    std::printf("%s %-12s tamper=%d attempted=%ld failed=%ld (want %ld)\n",
                ok ? "PASS" : "FAIL", std::string(c.workload).c_str(),
                static_cast<int>(c.tamper), o.attempted, o.failed,
                c.want_failed);
    bad += ok ? 0 : 1;
  }
  std::printf("self-test: %s\n", bad ? "FAILED" : "ok");
  return bad ? 1 : 0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out DIR] [--width W]\n"
               "       perfbench --self-test\nworkloads:",
               msg);
  for (auto n : workload_names())
    std::fprintf(stderr, " %s", std::string(n).c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out = ".bench_build/perfbench/traces";
  Settings s;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return self_test();
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      s.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      trace = v == "1";
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--width") {
      s.width = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (s.width < 1 || s.width > 64) return usage("--width takes 1..64");
    } else {
      return usage(("unknown argument " + a).c_str());
    }
    if (end && *end) return usage(("bad number for " + a).c_str());
  }
  if (!make_workload(workload, s)) return usage("unknown --workload");
  print_result(run(workload, s, seconds, trace, trace_out));
  return 0;
}
