#pragma once
/// \file bench.hpp
/// \brief Shared pieces of the repo benchmark: the in-memory span tracer,
/// per-round operation accounting, and the workload interface.
///
/// Every call into the program goes through `Round::harness` (simulated
/// runs, counted in `run_s`) or a `Scope` (input construction and the
/// reference computations).  Both record a span only while tracing is on;
/// timing itself is always on, so the untraced run still reports host
/// times.

#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Metric name -> value (units follow from the name, see main.cpp).
using Metrics = std::map<std::string, double>;

/// One recorded span; `parent` indexes the enclosing span, -1 at top level.
struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< host seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;
};

/// In-memory span recorder.  Spans nest by construction order (one
/// thread drives the benchmark); nothing is written until `write`.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string name) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), seconds_since(origin_), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end_s = seconds_since(origin_);
    current_ = spans_[id].parent;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Write every span as JSON to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  int current_ = -1;
};

/// Scoped span plus a host timer.
class Scope {
 public:
  Scope(Tracer& t, std::string name)
      : tracer_(t), id_(t.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  double elapsed() const { return seconds_since(t0_); }

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point t0_ = Clock::now();
};

/// Deliberate corruption of one output before its check, used only by
/// the benchmark's self-test to show the checks bite.
enum class Tamper { none, solution, count };

/// Knobs of one workload instance.
struct Settings {
  std::uint64_t seed = 1;
  int width = 1;       ///< engine and build width
  bool small = false;  ///< self-test scale
  Tamper tamper = Tamper::none;
};

/// Operation accounting and metrics of one measured round.
class Round {
 public:
  explicit Round(Tracer& t) : tracer(t) {}

  /// Run one simulated harness call as an operation: its host time goes
  /// to `run_s` and to the per-layer metric `host_key`, under a span
  /// named `span`.  A thrown error (the harness's own payload and halo
  /// verification throw) fails the operation and yields nullopt.
  template <class F>
  auto harness(const std::string& span, const std::string& host_key, F&& f)
      -> std::optional<std::invoke_result_t<F&>> {
    ++attempted;
    Scope s(tracer, span);
    std::optional<std::invoke_result_t<F&>> out;
    try {
      out.emplace(f());
    } catch (const std::exception& e) {
      report(span, {e.what()});
    }
    const double dt = s.elapsed();
    run_s += dt;
    layer[host_key] += dt;
    return out;
  }

  /// Close the checks of one operation: any problem fails it.
  void check(const std::string& op, const std::vector<std::string>& problems) {
    if (!problems.empty()) report(op, problems);
  }

  Tracer& tracer;
  long attempted = 0;
  long failed = 0;
  double run_s = 0.0;  ///< host seconds inside harness calls
  Metrics sim;         ///< simulated end-to-end metrics
  Metrics layer;       ///< per-layer metrics

 private:
  void report(const std::string& op, const std::vector<std::string>& problems) {
    ++failed;
    for (const auto& p : problems)
      std::cerr << "perfbench: FAILED " << op << ": " << p << "\n";
  }
};

/// A benchmark workload.  `setup` builds the program's inputs and is
/// timed as setup_s (it may run several times; the last result is kept);
/// `prepare` makes the independent reference results once; `round` runs
/// the measured simulated calls and checks them.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Tracer& t, Metrics& layer) = 0;
  virtual void prepare(Tracer& /*t*/, Metrics& /*layer*/) {}
  virtual void round(Round& r) = 0;
  /// Setup repetitions per run (setup_s is their median).
  virtual int setup_reps() const = 0;
};

/// Workload names, in BENCHMARK.json order.
std::span<const std::string_view> workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Settings& s);

}  // namespace perfbench
