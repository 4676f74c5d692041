// scale_points and sim_validate: workloads whose operation is one cold
// api::Scenario run. Each run draws its operations round-robin from a small
// list of distinct scenarios generated from the seed; set-up runs every
// distinct scenario once and pins the FNV-1a digest of its ResultSet JSON,
// and every timed run of it must reproduce those bytes. After the timed
// loop each distinct scenario's output is also checked against an
// independent reference: a committed cell where one exists (the fig6/fig7
// baselines, perfbench/reference/ for scale_points), else a cold run
// through the solver and assembly oracles (SolverIteration::GaussSeidel,
// LatencyAssembly::DirectWalk).
//
// replay() re-issues the calls Scenario makes for the same run — the
// registry factories, Workload::validate, the RoutePlan/FlowGraph
// constructors, the probe, the spine, the batched solve, the simulator —
// one span per call, so the per-layer metrics are measured from outside
// the library. The replay must reproduce the untraced bytes exactly, make
// the probe runs and batched solves the library reports for the untraced
// run, and take about as long; otherwise it would be timing a different
// program.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "quarc/api/registry.hpp"
#include "quarc/api/result_diff.hpp"
#include "quarc/api/scenario.hpp"
#include "quarc/model/latency_stencil.hpp"
#include "quarc/util/hash.hpp"
#include "quarc/util/rng.hpp"

namespace perfbench {
namespace {

using quarc::api::ResultRow;
using quarc::api::ResultSet;

/// One distinct scenario: everything Scenario is built from.
struct ScenarioInput {
  std::string topology;
  std::string pattern;
  double alpha = 0.05;
  int message_length = 32;
  std::uint64_t seed = 1;
  std::vector<double> rates;  ///< run_sweep's explicit grid (SimSweep)
  double rate = 0.0;          ///< run_model's single rate (Point)
  bool sim = false;
  quarc::Cycle warmup = 0;
  quarc::Cycle measure = 0;
  /// Committed ResultSet to diff against, relative to the repository
  /// root ("" = none: the oracle run is the reference).
  std::string baseline;
};

enum class Kind { Point, SimSweep };

/// What the library reports about one run's call structure: the replay
/// must make the same probe runs and batched solves.
struct CallCounts {
  int probe_runs = 0;
  std::int64_t solve_batches = 0;
  std::int64_t solve_lanes = 0;
  std::int64_t solve_lane_iterations = 0;
  bool operator==(const CallCounts&) const = default;
};

quarc::api::Scenario make_scenario(const ScenarioInput& in) {
  quarc::api::Scenario sc;
  sc.topology(in.topology)
      .pattern(in.pattern)
      .alpha(in.alpha)
      .message_length(in.message_length)
      .seed(in.seed)
      .threads(1)
      .sim_engine(quarc::sim::SimEngine::Active)
      .with_sim(in.sim);
  if (in.rate > 0.0) sc.rate(in.rate);
  if (in.sim) sc.warmup(in.warmup).measure(in.measure);
  return sc;
}

/// What Scenario::validate() compiles, built call by call.
struct Compiled {
  std::shared_ptr<const quarc::Topology> topo;
  std::shared_ptr<const quarc::MulticastPattern> pattern;
  quarc::Workload workload;
  std::shared_ptr<const quarc::RoutePlan> plan;
  std::shared_ptr<const quarc::FlowGraph> flows;
};

Compiled compile_traced(const ScenarioInput& in, Tracer& t) {
  Compiled c;
  c.topo = t.span("topo.build", [&] { return quarc::api::make_topology(in.topology); });
  c.pattern = t.span("traffic.pattern", [&] {
    quarc::Rng rng(in.seed);
    return quarc::api::make_pattern(in.pattern, c.topo->num_nodes(), rng);
  });
  c.workload.message_rate = in.rate > 0.0 ? in.rate : 0.004;  // Scenario's default rate
  c.workload.multicast_fraction = in.alpha;
  c.workload.message_length = in.message_length;
  c.workload.pattern = c.pattern;
  t.span("traffic.validate", [&] { c.workload.validate(*c.topo); });
  c.plan = t.span("route.plan", [&] {
    return std::make_shared<const quarc::RoutePlan>(*c.topo,
                                                   in.alpha > 0.0 ? c.pattern.get() : nullptr);
  });
  c.flows = t.span("model.flow_graph",
                   [&] { return std::make_shared<const quarc::FlowGraph>(*c.plan, c.workload); });
  return c;
}

/// Scenario::make_result_set(): scenario metadata, including the
/// topology's diameter.
ResultSet result_set_traced(const ScenarioInput& in, const Compiled& c, Tracer& t) {
  return t.span("api.result_set", [&] {
    ResultSet rs;
    rs.topology = in.topology;
    rs.topology_name = c.topo->name();
    rs.nodes = c.topo->num_nodes();
    rs.ports = c.topo->num_ports();
    rs.diameter = c.topo->diameter();
    rs.pattern = in.pattern;
    rs.alpha = in.alpha;
    rs.message_length = in.message_length;
    rs.seed = in.seed;
    rs.workload = c.workload.describe();
    return rs;
  });
}

/// Scenario::run_sweep(rates) after validation: the memoized probe +
/// spine, then sweep_tasks' batched model solve (one PerformanceModel +
/// evaluate_batch per lane group of 8, seeded from the spine) and, per
/// point, one simulator.
std::vector<ResultRow> sweep_traced(const ScenarioInput& in, const Compiled& c,
                                    const std::shared_ptr<const quarc::ContinuationSpine>& spine,
                                    std::span<const double> rates, Tracer& t,
                                    CallCounts& counts) {
  const quarc::SweepConfig defaults;
  std::vector<quarc::RatePointResult> points(rates.size());
  t.span("sweep.points", [&] {
    quarc::CurveWorkspace cw;
    std::vector<double> seed_buf;
    const std::size_t width_cap = static_cast<std::size_t>(defaults.batch_points);
    for (std::size_t begin = 0; begin < rates.size(); begin += width_cap) {
      const std::size_t end = std::min(rates.size(), begin + width_cap);
      const std::span<const double> lane_rates = rates.subspan(begin, end - begin);
      quarc::Workload w = c.workload;
      w.message_rate = lane_rates[0];
      const quarc::PerformanceModel model = t.span(
          "model.ctor", [&] { return quarc::PerformanceModel(*c.flows, w, defaults.model); });
      std::vector<double> x0;
      const std::size_t nch = c.flows->num_channels();
      x0.resize(lane_rates.size() * nch);
      for (std::size_t l = 0; l < lane_rates.size(); ++l) {
        spine->seed(lane_rates[l], seed_buf);
        std::copy(seed_buf.begin(), seed_buf.end(),
                  x0.begin() + static_cast<std::ptrdiff_t>(l * nch));
      }
      std::vector<quarc::ModelResult> res =
          t.span("model.evaluate", [&] { return model.evaluate_batch(lane_rates, cw, x0); });
      t.count("sweep.solve_lanes", static_cast<double>(lane_rates.size()));
      ++counts.solve_batches;
      counts.solve_lanes += static_cast<std::int64_t>(lane_rates.size());
      for (std::size_t l = 0; l < lane_rates.size(); ++l) {
        t.count("model.solver_iterations", res[l].solver_iterations);
        counts.solve_lane_iterations += res[l].solver_iterations;
        points[begin + l].rate = lane_rates[l];
        points[begin + l].model = std::move(res[l]);
      }
    }
  });
  if (in.sim) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      quarc::sim::SimConfig sc = defaults.sim;
      sc.engine = quarc::sim::SimEngine::Active;
      sc.warmup_cycles = in.warmup;
      sc.measure_cycles = in.measure;
      sc.workload = c.workload;
      sc.workload.message_rate = rates[i];
      sc.seed = quarc::sweep_point_seed(in.seed, rates[i]);
      quarc::sim::Simulator sim =
          t.span("sim.build", [&] { return quarc::sim::Simulator(*c.plan, sc); });
      points[i].sim = t.span("sim.run", [&] { return sim.run(); });
      points[i].sim_run = true;
      const quarc::sim::SimProfile& p = sim.profile();
      const auto executed = static_cast<double>(p.cycles_executed);
      const auto skipped = static_cast<double>(p.cycles_skipped);
      t.count("sim.cycles_executed", executed);
      t.count("sim.cycles_skipped", skipped);
      t.count("sim.cycles_run", static_cast<double>(points[i].sim.cycles_run));
      t.count("sim.channel_visits", static_cast<double>(p.channel_visits));
    }
  }
  std::vector<ResultRow> rows;
  rows.reserve(points.size());
  for (const quarc::RatePointResult& p : points) rows.push_back(ResultRow::from_point(p));
  return rows;
}

class ScenarioWorkload : public Workload {
 public:
  /// Operation k runs inputs_[schedule[k % schedule.size()]].
  ScenarioWorkload(Kind kind, std::vector<std::size_t> schedule, double ops_per_second)
      : kind_(kind), schedule_(std::move(schedule)), ops_per_second_(ops_per_second) {}

  std::size_t op_count(int seconds) const override {
    // Whole rounds of the schedule, so every scenario gets its exact
    // share, and at least 100 operations so p90 has ten samples above it.
    const std::size_t d = schedule_.size();
    const auto wanted =
        std::max<std::size_t>(100, static_cast<std::size_t>(ops_per_second_ * seconds));
    return (wanted + d - 1) / d * d;
  }

  void run_ops(std::size_t ops, const OpDone& done) override {
    for (std::size_t k = 0; k < ops; ++k) {
      const Clock::time_point t0 = Clock::now();
      run_input(inputs_[distinct_of(k)]);
      const double ms = ms_between(t0, Clock::now());
      done(k, ms, output());
    }
  }

  void run_input(const ScenarioInput& in) {
    quarc::api::Scenario sc = make_scenario(in);
    last_ = kind_ == Kind::Point ? sc.run_model() : sc.run_sweep(in.rates);
    last_counts_ = {sc.saturation_probe_runs(), last_.solve_batches, last_.solve_lanes,
                    last_.solve_lane_iterations};
  }

  std::string output() const { return last_.to_json().dump(); }

  std::string replay(std::size_t k, Tracer& t) override {
    const ScenarioInput& in = inputs_[distinct_of(k)];
    const Compiled c = compile_traced(in, t);
    CallCounts counts;
    if (kind_ == Kind::Point) {
      // run_model(): validate, then PerformanceModel (which validates the
      // workload again), then evaluate, whose first call compiles the
      // flow graph's latency stencil.
      const quarc::PerformanceModel model = t.span(
          "model.ctor", [&] { return quarc::PerformanceModel(*c.flows, c.workload, {}); });
      t.span("model.stencil", [&] { (void)c.flows->stencil(); });
      const quarc::ModelResult m = t.span("model.evaluate", [&] { return model.evaluate(); });
      t.count("model.solver_iterations", m.solver_iterations);
      last_ = result_set_traced(in, c, t);
      last_.rows.push_back(ResultRow::from_model(in.rate, m));
    } else {
      // compile_traced stood for run_sweep(rates)'s validate();
      // ensure_saturation() validates again and runs the probe and the
      // spine.
      const quarc::ModelOptions opts;
      const quarc::SweepConfig defaults;
      const quarc::SaturationProbeResult probe = t.span(
          "sweep.probe", [&] { return quarc::probe_saturation_rate(*c.flows, c.workload, opts); });
      ++counts.probe_runs;
      t.count("sweep.probe_solves", probe.solves);
      t.count("sweep.probe_iterations", static_cast<double>(probe.iterations));
      const auto spine = t.span("sweep.spine", [&] {
        return quarc::finalize_spine(*c.flows, c.workload, opts, defaults.spine_points, probe);
      });
      t.span("traffic.validate", [&] { c.workload.validate(*c.topo); });
      last_ = result_set_traced(in, c, t);
      t.span("model.stencil", [&] { (void)c.flows->stencil(); });
      last_.rows = sweep_traced(in, c, spine, in.rates, t, counts);
    }
    // main.cpp replays operation k right after running it untraced, so
    // last_counts_ still holds that run's counts.
    if (counts != last_counts_ && replay_mismatch_.empty()) {
      replay_mismatch_ = "op " + std::to_string(k) + " (" + in.topology +
                         "): the replay's probe runs or batched solves differ from the library's";
    }
    return output();
  }

  std::string replay_divergence(double traced_p50, double untraced_p50) const override {
    if (!replay_mismatch_.empty()) return replay_mismatch_;
    // Each replay runs right after its untraced twin, so both medians see
    // the same host. A replay that makes a call the library no longer
    // makes (or skips one it does) shows as a gap between them.
    const double ratio = traced_p50 / untraced_p50;
    if (std::abs(ratio - 1.0) > kReplayTimeTolerance) {
      return "replay p50 " + std::to_string(traced_p50) + " ms vs untraced p50 " +
             std::to_string(untraced_p50) + " ms: the replay no longer makes the library's calls";
    }
    return {};
  }

  Check verify(std::size_t k, const std::string& bytes) override {
    const std::size_t d = distinct_of(k);
    if (quarc::fnv1a64(bytes) != pinned_[d]) return {false, "output differs from its warm-up run"};
    return {};
  }

  Check check_reference(std::size_t k, const std::string& bytes) override {
    const std::size_t d = distinct_of(k);
    quarc::api::DiffOptions opts;
    opts.tolerance = 0.05;  // the CI gate's tolerance
    try {
      const quarc::api::DiffReport report =
          quarc::api::diff_result_sets(reference(d), ResultSet::from_json_text(bytes), opts);
      if (!report.scenarios_match) return {false, "scenario differs from its reference"};
      if (!report.entries.empty()) {
        const quarc::api::DiffEntry& e = report.entries.front();
        return {false, "differs from its reference by more than 5% (" + e.field + " at rate " +
                           std::to_string(e.rate) + ": " + to_string(e.status) + ")"};
      }
    } catch (const std::exception& e) {
      return {false, std::string("unreadable output: ") + e.what()};
    }
    return {};
  }

  void verify_deferred(std::vector<Check>& checks) override {
    // Every operation's bytes equal its distinct scenario's pinned bytes
    // (verify), so checking those once per distinct scenario covers all.
    for (std::size_t d = 0; d < inputs_.size(); ++d) {
      const std::size_t k = first_op_of(d);
      const Check c = check_reference(k, pinned_bytes_[d]);
      if (c.ok) continue;
      for (std::size_t j = 0; j < checks.size(); ++j) {
        if (checks[j].ok && distinct_of(j) == d) checks[j] = c;
      }
    }
  }

  std::pair<std::size_t, std::string> sample_output() const override {
    return {first_op_of(0), pinned_bytes_[0]};
  }

  std::size_t distinct_of(std::size_t k) const override { return schedule_[k % schedule_.size()]; }
  std::string op_class(std::size_t k) const override { return inputs_[distinct_of(k)].topology; }

  void setup(std::uint64_t seed, std::size_t ops, bool traced) override {
    (void)ops;
    (void)traced;
    generate(seed);
    load_baselines();
    pinned_.clear();
    pinned_bytes_.clear();
    for (std::size_t d = 0; d < inputs_.size(); ++d) {
      run_input(inputs_[d]);
      pinned_bytes_.push_back(output());
      pinned_.push_back(quarc::fnv1a64(pinned_bytes_.back()));
    }
  }

  void layer_metrics(std::map<std::string, double>& out) const override {
    if (kind_ != Kind::SimSweep) return;
    // The paper's accuracy claim: median |model - sim| / sim latency over
    // every sub-saturation point (converged model, stable completed sim)
    // of the distinct scenarios.
    std::vector<double> errors;
    for (const std::string& bytes : pinned_bytes_) {
      for (const ResultRow& r : ResultSet::from_json_text(bytes).rows) {
        if (r.model_status != "converged" || !r.sim_stable || !r.sim_completed) continue;
        for (const double e : {r.unicast_error(), r.multicast_error()}) {
          if (std::isfinite(e)) errors.push_back(std::abs(e));
        }
      }
    }
    out["model.sim_err"] = quantile(errors, 0.5);
  }

 protected:
  /// Largest relative gap between the traced and untraced p50 before the
  /// replay counts as timing a different program. Observed gaps stay
  /// within 3%; dropping one 256-node diameter() scan would move 15%.
  static constexpr double kReplayTimeTolerance = 0.10;

  virtual void generate(std::uint64_t seed) = 0;

  /// The independent result distinct scenario `d` is checked against: its
  /// committed cell, else a cold run through the solver and assembly
  /// oracles, computed once and never timed.
  const ResultSet& reference(std::size_t d) {
    if (!references_[d]) {
      const ScenarioInput& in = inputs_[d];
      quarc::api::Scenario sc = make_scenario(in);
      sc.model_options().solver.iteration = quarc::SolverIteration::GaussSeidel;
      sc.model_options().assembly = quarc::LatencyAssembly::DirectWalk;
      references_[d] = kind_ == Kind::Point ? sc.run_model() : sc.run_sweep(in.rates);
    }
    return *references_[d];
  }

  /// Reads every distinct scenario's committed cell into references_.
  void load_baselines() {
    references_.assign(inputs_.size(), std::nullopt);
    for (std::size_t d = 0; d < inputs_.size(); ++d) {
      const std::string& path = inputs_[d].baseline;
      if (path.empty()) continue;
      std::ifstream f(path);
      if (!f) throw std::runtime_error("cannot read " + path + " (run from the repository root)");
      std::stringstream ss;
      ss << f.rdbuf();
      references_[d] = ResultSet::from_json_text(ss.str());
    }
  }

  std::size_t first_op_of(std::size_t d) const {
    return static_cast<std::size_t>(std::find(schedule_.begin(), schedule_.end(), d) - schedule_.begin());
  }

  Kind kind_;
  std::vector<std::size_t> schedule_;
  double ops_per_second_;
  std::vector<ScenarioInput> inputs_;
  std::vector<std::uint64_t> pinned_;
  std::vector<std::string> pinned_bytes_;
  std::vector<std::optional<ResultSet>> references_;
  ResultSet last_;
  CallCounts last_counts_;
  std::string replay_mismatch_;
};

double uniform(quarc::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------- scale_points
// One cold run_model at a single rate below saturation on 256 nodes:
// mesh:16x16 and torus:16x16, about 200 ms each, nearly all of it in
// compile and validation and about 1% in the solve. The mesh costs ~15%
// more than the torus, so the two are scheduled 1:3 rather than
// alternately: p50 then sits inside the torus class and p90 inside the
// mesh class instead of on the boundary between them. The mesh point and
// one torus point are fixed cells committed under perfbench/reference/,
// so a fast but wrong compile (route plan, flow graph) fails against
// them; the other two torus points are drawn from the seed.
class ScalePoints final : public ScenarioWorkload {
 public:
  ScalePoints() : ScenarioWorkload(Kind::Point, {0, 1, 2, 3}, 5.0) {}

 protected:
  void generate(std::uint64_t seed) override {
    inputs_.clear();
    // The committed cells; perfbench/README.md gives the commands that
    // regenerate them.
    for (const auto& [spec, cell_seed, rate, file] :
         {std::tuple<const char*, std::uint64_t, double, const char*>{
              "mesh:16x16", 7, 0.0008, "perfbench/reference/scale_mesh16x16.json"},
          {"torus:16x16", 11, 0.0009, "perfbench/reference/scale_torus16x16.json"}}) {
      ScenarioInput in;
      in.topology = spec;
      in.pattern = "random:4";
      in.seed = cell_seed;
      in.rate = rate;
      in.baseline = file;
      inputs_.push_back(in);
    }
    // Seeded torus points below its saturation rate for random:4, alpha
    // 0.05 (0.00196, probed once).
    quarc::Rng rng(seed);
    for (int i = 0; i < 2; ++i) {
      ScenarioInput in;
      in.topology = "torus:16x16";
      in.pattern = "random:4";
      in.seed = rng.next_u64() % 1000000;
      in.rate = 0.00196 * uniform(rng, 0.2, 0.7);
      inputs_.push_back(in);
    }
  }
};

// ---------------------------------------------------------------- sim_validate
// Model + simulation over explicit 4-rate grids: the two committed
// baseline cells (fig6, fig7 on quarc:16, exactly as bench/baselines/
// README.md regenerates them) plus seeded mesh:8x8 and torus:8x8 grids.
// A 64-node operation cannot be made as cheap as a baseline cell (its
// model compile and simulator builds alone cost more), so the schedule
// runs both baseline cells twice per mesh or torus grid. The 64-node
// grids are then the top fifth of the operations, with p90 at their
// median, and p50 sits inside the quarc:16 class. (With the grids a third
// of the operations, p90 sat at their 70th percentile, where the share
// of operations the host runs in its slow mode moved it by 20%.) The grids' rates
// are fixed shares of saturation and only their pattern seeds come from
// the seed; four seeded grids per network average out the cost
// difference between pattern seeds.
class SimValidate final : public ScenarioWorkload {
 public:
  SimValidate()
      : ScenarioWorkload(Kind::SimSweep,
                         {0, 1, 0, 1, 2, 0, 1, 0, 1, 3, 0, 1, 0, 1, 4, 0, 1, 0, 1, 5,
                          0, 1, 0, 1, 6, 0, 1, 0, 1, 7, 0, 1, 0, 1, 8, 0, 1, 0, 1, 9},
                         50.0) {}

 protected:
  void generate(std::uint64_t seed) override {
    inputs_.clear();
    ScenarioInput fig6;
    fig6.topology = "quarc:16";
    fig6.pattern = "random:3";
    fig6.seed = 42;
    fig6.rates = {0.002, 0.003, 0.004, 0.005};
    fig6.sim = true;
    fig6.warmup = 1000;
    fig6.measure = 8000;
    fig6.baseline = "bench/baselines/fig6_quarc16_random.json";
    ScenarioInput fig7 = fig6;
    fig7.pattern = "localized:0.25:0.75:3";
    fig7.seed = 43;
    fig7.baseline = "bench/baselines/fig7_quarc16_localized.json";
    inputs_.push_back(fig6);
    inputs_.push_back(fig7);
    quarc::Rng rng(seed);
    for (int variant = 0; variant < 4; ++variant) {
      for (const auto& [spec, saturation] :
           {std::pair<const char*, double>{"mesh:8x8", 0.00451}, {"torus:8x8", 0.00432}}) {
        ScenarioInput in;
        in.topology = spec;
        in.pattern = "random:4";
        in.seed = rng.next_u64() % 1000000;
        for (const double share : {0.2, 0.35, 0.5, 0.65}) in.rates.push_back(saturation * share);
        in.sim = true;
        in.warmup = 500;
        in.measure = 2000;
        inputs_.push_back(in);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Workload> make_scale_points() { return std::make_unique<ScalePoints>(); }
std::unique_ptr<Workload> make_sim_validate() { return std::make_unique<SimValidate>(); }

}  // namespace perfbench
