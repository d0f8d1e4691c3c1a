/// \file workloads.cpp
/// \brief The four benchmark workloads and the independent checks of
/// their outputs.  Inputs come only from `sparse::`, `amg::` and
/// `patterns::` calls made here (never from the on-disk hierarchy cache);
/// simulated runs come only from `harness::` calls.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "amg/distribute.hpp"
#include "amg/hierarchy.hpp"
#include "amg/solve.hpp"
#include "bench.hpp"
#include "harness/dist_solve.hpp"
#include "harness/measure.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/fault.hpp"
#include "sparse/stencil.hpp"

namespace perfbench {
namespace {

using harness::Protocol;
constexpr double kUs = 1e6;
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The Lassen cost model with every network-tier latency scaled by a
/// seeded factor in [0.99, 1.01]: the AMG inputs have no random
/// structure, so the seed samples the simulated machine instead.
simmpi::CostParams seeded_machine(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x1a7e2c9ull;
  const double u = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  simmpi::CostParams c = simmpi::CostParams::lassen();
  auto& net = c.tier[static_cast<int>(simmpi::Locality::network)];
  for (simmpi::Regime* g : {&net.short_, &net.eager, &net.rend})
    g->alpha *= 0.99 + 0.02 * u;
  return c;
}

const char* key_of(Protocol p) {
  switch (p) {
    case Protocol::hypre: return "hypre";
    case Protocol::neighbor_standard: return "standard";
    case Protocol::neighbor_partial: return "locality";
    case Protocol::neighbor_full: return "dedup";
  }
  return "?";
}
const char* key_of(mpix::Method m) { return key_of(harness::protocol_of(m)); }
const char* key_of(mpix::AlltoallMethod m) {
  switch (m) {
    case mpix::AlltoallMethod::standard: return "dense_standard";
    case mpix::AlltoallMethod::node_aggregated: return "node_aggregated";
    case mpix::AlltoallMethod::bruck: return "bruck";
  }
  return "?";
}

void append(std::vector<std::string>& a, const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
}

std::string str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

// ---- AMG workloads --------------------------------------------------------

/// Inputs of the AMG workloads: the paper's rotated anisotropic problem,
/// its hierarchy, and that hierarchy distributed over the ranks.
class AmgWorkload : public Workload {
 public:
  AmgWorkload(const Settings& s, int nx, int ny, int nranks, int rpr)
      : s_(s), nx_(nx), ny_(ny), nranks_(nranks), rpr_(rpr) {}

  void setup(Tracer& t, Metrics& layer) override {
    dh_.reset();
    h_.reset();
    sparse::Csr A;
    {
      Scope sc(t, "sparse.paper_problem");
      A = sparse::paper_problem(nx_, ny_);
      layer["sparse.problem_s"] = sc.elapsed();
    }
    {
      Scope sc(t, "amg.Hierarchy::build");
      amg::Options opts;
      opts.threads = s_.width;
      h_.emplace(amg::Hierarchy::build(std::move(A), opts));
      layer["amg.build_s"] = sc.elapsed();
    }
    {
      Scope sc(t, "amg.distribute_hierarchy");
      dh_.emplace(amg::distribute_hierarchy(*h_, nranks_));
      layer["amg.distribute_s"] = sc.elapsed();
    }
    layer["amg.levels"] = h_->num_levels();
  }

 protected:
  /// Sum per-level maxima (the paper's Figs. 8-10 counts) into `layer`.
  static void add_counts(Metrics& layer, const std::string& key,
                         const std::vector<harness::LevelMeasurement>& lm) {
    const std::string k = "mpix." + key;
    for (const auto& l : lm) {
      layer[k + ".global_msgs"] += static_cast<double>(l.max_global_msgs);
      layer[k + ".local_msgs"] += static_cast<double>(l.max_local_msgs);
      layer[k + ".global_values"] += static_cast<double>(l.max_global_values);
      layer[k + ".max_msg_values"] =
          std::max(layer[k + ".max_msg_values"],
                   static_cast<double>(l.max_global_msg_values));
    }
  }

  /// One entry per level, with finite non-negative times.
  std::vector<std::string> check_levels(
      const std::vector<harness::LevelMeasurement>& lm) const {
    if (static_cast<int>(lm.size()) != dh_->num_levels())
      return {"level count " + std::to_string(lm.size())};
    std::vector<std::string> problems;
    double total = 0.0;
    for (const auto& l : lm) {
      if (!(l.start_wait_seconds >= 0.0) || !(l.init_seconds >= 0.0) ||
          !std::isfinite(l.start_wait_seconds + l.init_seconds))
        problems.push_back("level " + std::to_string(l.level) + " times " +
                           str(l.init_seconds) + " / " +
                           str(l.start_wait_seconds));
      total += l.start_wait_seconds;
    }
    if (!(total > 0.0)) problems.push_back("no Start+Wait time at any level");
    return problems;
  }

  /// Per-layer name of a protocol's simulated time (hypre is no mpix method).
  static std::string sim_key(Protocol p) {
    return (p == Protocol::hypre ? "harness." : "mpix.") +
           std::string(key_of(p)) + ".sim_us";
  }

  harness::MeasureConfig config() const {
    harness::MeasureConfig cfg;
    cfg.ranks_per_region = rpr_;
    cfg.cost = seeded_machine(s_.seed);
    cfg.threads = s_.width;
    return cfg;
  }

  Settings s_;
  int nx_, ny_, nranks_, rpr_;
  std::optional<amg::Hierarchy> h_;
  std::optional<amg::DistHierarchy> dh_;
};

/// The paper's end-to-end scenario: a distributed AMG solve under each
/// protocol, checked against a serial solve of the same system.
class AmgSolve : public AmgWorkload {
 public:
  static constexpr double kTol = 1e-8;
  static constexpr int kMaxCycles = 60;

  explicit AmgSolve(const Settings& s)
      : AmgWorkload(s, s.small ? 64 : 256, s.small ? 32 : 256,
                    s.small ? 16 : 128, s.small ? 4 : 16) {}

  int setup_reps() const override { return 5; }

  void prepare(Tracer& t, Metrics& layer) override {
    const long n = h_->levels[0].n();
    std::uint64_t st = s_.seed;
    b_.resize(n);
    for (auto& v : b_)
      v = 2.0 * static_cast<double>(splitmix64(st) >> 11) * 0x1.0p-53 - 1.0;
    Scope sc(t, "amg.amg_solve");
    x_ref_.assign(n, 0.0);
    const amg::SolveResult ref =
        amg::amg_solve(*h_, b_, x_ref_, kTol, 4 * kMaxCycles);
    ref_cycles_ = ref.converged ? ref.iterations : -1;
    layer["amg.reference_solve_s"] = sc.elapsed();
  }

  void round(Round& r) override {
    const harness::MeasureConfig cfg = config();
    std::vector<double> first_solution;
    double best = kInf;
    for (Protocol p : harness::kAllProtocols) {
      const std::string key = key_of(p);
      auto res = r.harness("harness.run_distributed_amg/" + key,
                           "harness." + key + ".host_s", [&] {
                             return harness::run_distributed_amg(
                                 *dh_, p, b_, kTol, kMaxCycles, cfg);
                           });
      if (!res) continue;
      if (s_.tamper == Tamper::solution && !res->solution.empty())
        res->solution[res->solution.size() / 2] += 1e-3;
      {
        Scope sc(r.tracer, "bench.check_solve/" + key);
        r.check("run_distributed_amg/" + key, check(*res, first_solution));
      }
      const double us = res->solve_seconds * kUs;
      best = std::min(best, us);
      r.layer[sim_key(p)] = us;
      r.layer["amg.vcycles." + key] =
          static_cast<double>(res->residual_history.size()) - 1;
    }
    r.sim["standard_sim_us"] = r.layer["mpix.standard.sim_us"];
    r.sim["aggregated_sim_us"] = r.layer["mpix.locality.sim_us"];
    r.sim["best_sim_us"] = best;

    // run_distributed_amg does not return its setup time, so the
    // aggregated methods' init cost comes from measure_protocol on the
    // same hierarchy (the operator halos of every level).
    double init = 0.0;
    for (Protocol p : {Protocol::neighbor_partial, Protocol::neighbor_full}) {
      const std::string key = key_of(p);
      auto lm = r.harness("harness.measure_protocol/" + key,
                          "harness." + key + ".host_s",
                          [&] { return harness::measure_protocol(*dh_, p, cfg); });
      if (!lm) continue;
      std::vector<std::string> problems = check_levels(*lm);
      double us = 0.0;
      for (const auto& l : *lm) {
        if (!(l.init_seconds > 0.0))
          problems.push_back("level " + std::to_string(l.level) +
                             " init time " + str(l.init_seconds));
        us += l.init_seconds * kUs;
      }
      r.check("measure_protocol/" + key, problems);
      r.layer["mpix." + key + ".init_sim_us"] = us;
      add_counts(r.layer, key, *lm);
      init += us;
    }
    r.sim["init_sim_us"] = init;
  }

 private:
  /// The solution must solve the system to the tolerance (residual
  /// recomputed on the host), take the serial solver's V-cycle count,
  /// match the serial solution, and be identical for every protocol.
  std::vector<std::string> check(const harness::DistSolveResult& res,
                                 std::vector<double>& first) const {
    std::vector<std::string> problems;
    const auto& A = h_->levels[0].A;
    const long n = A.rows();
    if (static_cast<long>(res.solution.size()) != n)
      return {"solution has " + std::to_string(res.solution.size()) +
              " entries, expected " + std::to_string(n)};
    const auto& perm = dh_->levels[0].perm;
    std::vector<double> x(n);
    for (long i = 0; i < n; ++i) x[i] = res.solution[perm[i]];
    const double bnorm = std::sqrt(
        std::inner_product(b_.begin(), b_.end(), b_.begin(), 0.0));
    const double rel = amg::residual_norm(A, b_, x) / bnorm;
    if (!res.converged) problems.push_back("did not converge");
    if (!(rel <= kTol))
      problems.push_back("relative residual " + str(rel) + " > " + str(kTol));
    const long cycles = static_cast<long>(res.residual_history.size()) - 1;
    if (cycles != ref_cycles_)
      problems.push_back(std::to_string(cycles) + " V-cycles, serial solve took " +
                         std::to_string(ref_cycles_));
    double dd = 0.0, rr = 0.0;
    for (long i = 0; i < n; ++i) {
      dd += (x[i] - x_ref_[i]) * (x[i] - x_ref_[i]);
      rr += x_ref_[i] * x_ref_[i];
    }
    if (!(std::sqrt(dd) <= 1e-9 * std::sqrt(rr)))
      problems.push_back("differs from the serial solution by " +
                         str(std::sqrt(dd / rr)) + " relative");
    if (first.empty())
      first = res.solution;
    else if (first != res.solution)
      problems.push_back("solution differs from the first protocol's");
    return problems;
  }

  std::vector<double> b_, x_ref_;
  long ref_cycles_ = -1;
};

/// The Figs. 6/11/12 point: graph creation and one init + Start/Wait per
/// level under every protocol, with cold plans, then the two locality
/// protocols again re-bound from the plan cache.
class AmgSetup : public AmgWorkload {
 public:
  explicit AmgSetup(const Settings& s)
      : AmgWorkload(s, s.small ? 64 : 512, s.small ? 32 : 512,
                    s.small ? 16 : 256, s.small ? 4 : 16) {}

  int setup_reps() const override { return 5; }

  void round(Round& r) override {
    harness::PlanCache cache;
    harness::MeasureConfig cfg = config();
    cfg.plans = &cache;

    auto gc = r.harness("harness.measure_graph_creation",
                        "harness.graph_create_s", [&] {
                          return harness::measure_graph_creation(
                              *dh_, simmpi::GraphAlgo::handshake, cfg);
                        });
    if (gc) {
      r.check("measure_graph_creation",
              *gc > 0.0 && std::isfinite(*gc)
                  ? std::vector<std::string>{}
                  : std::vector<std::string>{"time " + str(*gc)});
      r.layer["simmpi.graph_create_sim_us"] = *gc * kUs;
    }

    std::map<Protocol, std::vector<harness::LevelMeasurement>> cold;
    for (Protocol p : harness::kAllProtocols) {
      const std::string key = key_of(p);
      auto lm = r.harness("harness.measure_protocol/" + key,
                          "harness." + key + ".host_s",
                          [&] { return harness::measure_protocol(*dh_, p, cfg); });
      if (!lm) continue;
      if (s_.tamper == Tamper::count && p == Protocol::neighbor_standard &&
          !lm->empty())
        ++lm->back().max_global_msgs;
      std::vector<std::string> problems = check_levels(*lm);
      if (p == Protocol::neighbor_standard) append(problems, check_standard(*lm));
      if (p == Protocol::neighbor_full && cold.count(Protocol::neighbor_partial))
        append(problems, check_dedup(cold[Protocol::neighbor_partial], *lm));
      r.check("measure_protocol/" + key, problems);
      cold[p] = std::move(*lm);
    }

    // Second pass: the figure sweeps re-bind cached locality plans.
    for (Protocol p : {Protocol::neighbor_partial, Protocol::neighbor_full}) {
      const std::string key = key_of(p);
      const long hits0 = cache.hits(), misses0 = cache.misses();
      auto lm = r.harness("harness.measure_protocol/rebind/" + key,
                          "harness.plan_rebind_s",
                          [&] { return harness::measure_protocol(*dh_, p, cfg); });
      if (!lm) continue;
      std::vector<std::string> problems = check_levels(*lm);
      if (cache.misses() != misses0 || cache.hits() <= hits0)
        problems.push_back("rebinding pass: " +
                           std::to_string(cache.hits() - hits0) + " hits, " +
                           std::to_string(cache.misses() - misses0) +
                           " misses");
      if (cold.count(p)) append(problems, check_rebind(cold[p], *lm));
      r.check("measure_protocol/rebind/" + key, problems);
    }
    r.layer["harness.plan_cache.hits"] = static_cast<double>(cache.hits());
    r.layer["harness.plan_cache.misses"] = static_cast<double>(cache.misses());

    double best = 0.0, init = 0.0;
    for (int l = 0; l < dh_->num_levels(); ++l) {
      double lb = kInf;
      for (const auto& [p, lm] : cold)
        lb = std::min(lb, lm[l].start_wait_seconds * kUs);
      best += lb;
    }
    for (const auto& [p, lm] : cold) {
      const std::string key = key_of(p);
      double sw = 0.0, in = 0.0;
      for (const auto& l : lm) {
        sw += l.start_wait_seconds * kUs;
        in += l.init_seconds * kUs;
      }
      r.layer[sim_key(p)] = sw;
      if (p != Protocol::hypre) {
        r.layer["mpix." + key + ".init_sim_us"] = in;
        add_counts(r.layer, key, lm);
      }
      if (harness::uses_locality(p)) init += in;
    }
    r.sim["standard_sim_us"] = r.layer["mpix.standard.sim_us"];
    r.sim["aggregated_sim_us"] = r.layer["mpix.locality.sim_us"];
    r.sim["best_sim_us"] = best;
    r.sim["init_sim_us"] = init;
  }

 private:
  /// The standard method sends one message per halo neighbor, so its
  /// per-level maxima must equal the counts taken from the halo lists
  /// and the region map (rank / ranks_per_region).
  std::vector<std::string> check_standard(
      const std::vector<harness::LevelMeasurement>& lm) const {
    std::vector<std::string> problems;
    for (int l = 0; l < static_cast<int>(lm.size()); ++l) {
      long max_msgs = 0, max_values = 0;
      const auto& halo = dh_->levels[l].halo;
      for (int r = 0; r < nranks_; ++r) {
        const auto& h = halo.ranks[r];
        long msgs = 0, values = 0;
        for (std::size_t i = 0; i < h.send_ranks.size(); ++i)
          if (h.send_ranks[i] / rpr_ != r / rpr_) {
            ++msgs;
            values += h.send_counts[i];
          }
        max_msgs = std::max(max_msgs, msgs);
        max_values = std::max(max_values, values);
      }
      if (lm[l].max_global_msgs != max_msgs ||
          lm[l].max_global_values != max_values)
        problems.push_back(
            "level " + std::to_string(l) + ": standard reports " +
            std::to_string(lm[l].max_global_msgs) + " msgs / " +
            std::to_string(lm[l].max_global_values) +
            " values max per rank, halo lists give " +
            std::to_string(max_msgs) + " / " + std::to_string(max_values));
    }
    return problems;
  }

  /// Duplicate removal never adds network values.
  static std::vector<std::string> check_dedup(
      const std::vector<harness::LevelMeasurement>& loc,
      const std::vector<harness::LevelMeasurement>& dedup) {
    std::vector<std::string> problems;
    for (std::size_t l = 0; l < std::min(loc.size(), dedup.size()); ++l)
      if (dedup[l].max_global_values > loc[l].max_global_values)
        problems.push_back("level " + std::to_string(l) + ": dedup sends " +
                           std::to_string(dedup[l].max_global_values) +
                           " network values, locality " +
                           std::to_string(loc[l].max_global_values));
    return problems;
  }

  /// A re-bound plan moves the same data as the cold plan it came from.
  static std::vector<std::string> check_rebind(
      const std::vector<harness::LevelMeasurement>& cold,
      const std::vector<harness::LevelMeasurement>& warm) {
    std::vector<std::string> problems;
    for (std::size_t l = 0; l < std::min(cold.size(), warm.size()); ++l)
      if (cold[l].max_local_msgs != warm[l].max_local_msgs ||
          cold[l].max_global_msgs != warm[l].max_global_msgs ||
          cold[l].max_global_values != warm[l].max_global_values ||
          cold[l].max_global_msg_values != warm[l].max_global_msg_values)
        problems.push_back("level " + std::to_string(l) +
                           ": re-bound plan's message counts differ from the "
                           "cold plan's");
    return problems;
  }
};

// ---- generated-pattern workloads ------------------------------------------

struct PatternSpec {
  const char* name;
  patterns::PatternParams params;
};

/// Generated traffic on a tapered fat tree, every sparse and dense
/// method.  With `fault_draws` > 0 every measurement runs once per seeded
/// drop plan (5% message drops, reliable delivery on) and the simulated
/// times are averaged over the draws.
class PatternWorkload : public Workload {
 public:
  PatternWorkload(const Settings& s, std::vector<PatternSpec> specs,
                  simmpi::MachineConfig mc, int fault_draws)
      : s_(s), specs_(std::move(specs)), mc_(std::move(mc)) {
    for (auto& sp : specs_) sp.params.seed = static_cast<unsigned>(s.seed);
    std::uint64_t st = s.seed ^ 0xfa017ull;
    for (int k = 0; k < fault_draws; ++k) {
      simmpi::FaultPlan& plan = plans_.emplace_back();
      plan.seed = splitmix64(st);
      plan.events.push_back(
          {.kind = simmpi::FaultSpec::Kind::msg_drop, .rate = 0.05});
    }
  }

  int setup_reps() const override { return 200; }

  void setup(Tracer& t, Metrics& layer) override {
    wls_.clear();
    Scope sc(t, "patterns.generate");
    const simmpi::Machine machine(mc_);
    for (const auto& sp : specs_)
      wls_.push_back(patterns::generate(sp.name, machine, sp.params));
    layer["patterns.generate_s"] = sc.elapsed();
  }

  void round(Round& r) override {
    harness::MeasureConfig base;
    base.ranks_per_region = mc_.ranks_per_region;
    base.regions_per_node = mc_.regions_per_node;
    base.switch_levels = mc_.switch_levels;
    base.cost.use_link_cap = true;
    base.cost.use_ejection_cap = true;
    base.threads = s_.width;
    base.verify_payload = true;
    std::vector<harness::MeasureConfig> cfgs;
    for (const simmpi::FaultPlan& plan : plans_) {
      harness::MeasureConfig& cfg = cfgs.emplace_back(base);
      cfg.faults = &plan;
      cfg.reliability.enabled = true;
      cfg.reliability.timeout = 1e-4;
      cfg.reliability.backoff = 1.0;
    }
    if (cfgs.empty()) cfgs.push_back(base);
    const double w = 1.0 / static_cast<double>(cfgs.size());

    double standard = 0.0, aggregated = 0.0, best = 0.0, init = 0.0;
    for (const auto& wl : wls_) {
      double wl_best = kInf;
      // One method on this pattern, once per configuration; `measure`
      // runs the harness call, `extra` adds the method's own checks.
      auto method = [&](const std::string& key, const std::string& op,
                        auto&& measure, auto&& extra) {
        double us = 0.0;
        long msgs = 0, drops = 0;
        for (const harness::MeasureConfig& cfg : cfgs) {
          auto pm = r.harness("harness." + op, "harness." + key + ".host_s",
                              [&] { return measure(cfg); });
          if (!pm) continue;
          std::vector<std::string> problems = extra(*pm);
          msgs += pm->sum_global_msgs;
          drops += pm->drops;
          // Network traffic under the drop plans must see drops; a single
          // draw of a small exchange may miss by chance, all of them not.
          if (&cfg == &cfgs.back() && cfg.faults && msgs > 0 && drops == 0)
            problems.push_back("no drops over " + std::to_string(cfgs.size()) +
                               " faulted draws with " + std::to_string(msgs) +
                               " network messages");
          r.check(op, problems);
          const double one = (pm->blocking_seconds - pm->overlap_seconds) * kUs;
          add_layer(r.layer, key, *pm, one, w);
          us += w * one;
          if (key != "standard" && key != "dense_standard")
            init += w * pm->init_seconds * kUs;
        }
        wl_best = std::min(wl_best, us);
        if (key == "standard" || key == "dense_standard") standard += us;
        if (key == "locality" || key == "node_aggregated") aggregated += us;
      };
      for (mpix::Method m : mpix::kAllMethods)
        method(
            key_of(m), "measure_pattern/" + wl.pattern + "/" + key_of(m),
            [&](const harness::MeasureConfig& cfg) {
              return harness::measure_pattern(wl, m, cfg);
            },
            [&](harness::PatternMeasurement& pm) -> std::vector<std::string> {
              if (m != mpix::Method::standard) return {};
              if (s_.tamper == Tamper::count) ++pm.sum_global_msgs;
              return check_sparse_standard(wl, pm);
            });
      for (mpix::AlltoallMethod m : mpix::kAllAlltoallMethods)
        method(
            key_of(m), "measure_pattern_dense/" + wl.pattern + "/" + key_of(m),
            [&](const harness::MeasureConfig& cfg) {
              return harness::measure_pattern_dense(wl, m, cfg);
            },
            [&](harness::PatternMeasurement& pm) { return check_dense(m, pm); });
      best += wl_best;
    }
    r.sim["standard_sim_us"] = standard;
    r.sim["aggregated_sim_us"] = aggregated;
    r.sim["best_sim_us"] = best;
    r.sim["init_sim_us"] = init;
  }

 private:
  /// Per-layer figures of one measurement: simulated times and counts
  /// weighted by `w` (averaged over fault draws), maxima as maxima, fault
  /// counters as totals.
  static void add_layer(Metrics& layer, const std::string& key,
                        const harness::PatternMeasurement& m, double us,
                        double w) {
    const std::string k = "mpix." + key;
    auto max_into = [&](const std::string& name, double v) {
      layer[name] = std::max(layer[name], v);
    };
    layer[k + ".sim_us"] += w * us;
    layer[k + ".init_sim_us"] += w * m.init_seconds * kUs;
    layer[k + ".global_msgs"] += w * static_cast<double>(m.sum_global_msgs);
    layer[k + ".local_msgs"] += w * static_cast<double>(m.sum_local_msgs);
    layer[k + ".global_values"] += w * static_cast<double>(m.sum_global_values);
    max_into(k + ".max_msg_values", static_cast<double>(m.max_global_msg_values));
    for (std::size_t t = 0; t < m.link_seconds.size(); ++t) {
      const std::string tier = ".t" + std::to_string(t);
      layer["simmpi.link_busy_us" + tier] += w * m.link_seconds[t] * kUs;
      max_into("simmpi.link_backlog_us" + tier,
               m.max_link_backlog_seconds[t] * kUs);
      layer["simmpi.link_msgs" + tier] +=
          w * static_cast<double>(m.sum_link_msgs[t]);
    }
    layer["simmpi.faults.drops"] += static_cast<double>(m.drops);
    layer["simmpi.faults.dups"] += static_cast<double>(m.dups);
    layer["simmpi.faults.retransmits"] += static_cast<double>(m.retransmits);
    layer["simmpi.faults.timeouts"] += static_cast<double>(m.timeouts);
  }

  int region(int rank) const { return rank / mc_.ranks_per_region; }
  int num_regions() const { return mc_.num_nodes * mc_.regions_per_node; }

  /// The standard sparse method sends one message per edge, so its
  /// network totals equal the cross-region edges of the adjacency.
  std::vector<std::string> check_sparse_standard(
      const patterns::Workload& wl,
      const harness::PatternMeasurement& m) const {
    long msgs = 0, values = 0;
    for (int r = 0; r < wl.nranks; ++r) {
      const auto& ex = wl.ranks[r];
      for (std::size_t i = 0; i < ex.destinations.size(); ++i)
        if (region(ex.destinations[i]) != region(r)) {
          ++msgs;
          values += ex.sendcounts[i];
        }
    }
    if (m.sum_global_msgs == msgs && m.sum_global_values == values) return {};
    return {"standard sends " + std::to_string(m.sum_global_msgs) + " msgs / " +
            std::to_string(m.sum_global_values) + " values, adjacency gives " +
            std::to_string(msgs) + " / " + std::to_string(values)};
  }

  /// Dense network message totals have closed forms in P ranks and R
  /// equal regions.
  std::vector<std::string> check_dense(
      mpix::AlltoallMethod method, const harness::PatternMeasurement& m) const {
    const long rr = num_regions();
    const long p = rr * mc_.ranks_per_region;
    long want = 0;
    switch (method) {
      case mpix::AlltoallMethod::standard:
        want = p * p - rr * mc_.ranks_per_region * mc_.ranks_per_region;
        break;
      case mpix::AlltoallMethod::node_aggregated: want = rr * (rr - 1); break;
      case mpix::AlltoallMethod::bruck: {
        long lg = 0;
        while ((1L << lg) < rr) ++lg;
        want = rr * lg;
        break;
      }
    }
    if (m.sum_global_msgs == want) return {};
    return {std::string(key_of(method)) + " sends " +
            std::to_string(m.sum_global_msgs) + " network msgs, expected " +
            std::to_string(want)};
  }

  Settings s_;
  std::vector<PatternSpec> specs_;
  simmpi::MachineConfig mc_;
  std::vector<simmpi::FaultPlan> plans_;
  std::vector<patterns::Workload> wls_;
};

constexpr std::string_view kNames[] = {"amg_solve", "amg_setup",
                                       "fat_tree_mix", "fault_drop"};

}  // namespace

std::span<const std::string_view> workload_names() { return kNames; }

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Settings& s) {
  // Self-test machine: 4 ranks per region, 2 regions per node, 8 nodes
  // under 2 leaf switches.
  const simmpi::MachineConfig small{.num_nodes = 8,
                                    .regions_per_node = 2,
                                    .ranks_per_region = 4,
                                    .switch_levels = {{4, 2.0}, {2, 1.0}}};
  if (name == "amg_solve") return std::make_unique<AmgSolve>(s);
  if (name == "amg_setup") return std::make_unique<AmgSetup>(s);
  if (name == "fat_tree_mix")
    // 256 ranks: 16 per region, 2 regions per node, 8 nodes under 4 leaf
    // switches at 2:1 taper.
    return std::make_unique<PatternWorkload>(
        s,
        std::vector<PatternSpec>{
            {"stencil3d27", {.values = 8}},
            {"random_sparse", {.values = 32, .degree = 6}},
            {"incast", {.values = 16, .fan_in = 0, .sinks = 4}}},
        s.small ? small
                : simmpi::MachineConfig{.num_nodes = 8,
                                        .regions_per_node = 2,
                                        .ranks_per_region = 16,
                                        .switch_levels = {{2, 2.0}, {4, 1.0}}},
        /*fault_draws=*/0);
  if (name == "fault_drop")
    // 128 ranks: 8 per region, 2 regions per node, 8 nodes under 4 leaf
    // switches at 2:1 taper.
    return std::make_unique<PatternWorkload>(
        s,
        std::vector<PatternSpec>{
            {"random_sparse", {.values = 32, .degree = 6}},
            {"incast", {.values = 16, .fan_in = 0, .sinks = 4}}},
        s.small ? small
                : simmpi::MachineConfig{.num_nodes = 8,
                                        .regions_per_node = 2,
                                        .ranks_per_region = 8,
                                        .switch_levels = {{2, 2.0}, {4, 1.0}}},
        /*fault_draws=*/s.small ? 1 : 16);
  return nullptr;
}

}  // namespace perfbench
