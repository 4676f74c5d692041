// perfbench — in-process benchmark runner for libquarc.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Run from the repository root: committed reference cells are read from
// bench/baselines/ and perfbench/reference/.
//
// One workload per process, threads = 1 and the active simulator engine on
// every library call, and a fixed operation count per run (a function of
// --seconds only), so every run with the same arguments does the same
// work. Set-up — a fresh workload's input generation, one warm-up of every
// distinct operation, store priming — is repeated nine times and its
// median reported. Operations are timed with tracing off; each one's output is
// verified outside the timed region. A fixed reference kernel is timed
// before every set-up and about 200 times between operations, and every
// reported time is scaled to a host on which that kernel takes
// kNominalRefMs, so a run on a slower host reads the same. With --trace 1 half as many
// operations each run untraced and then as a traced replay of their public
// calls, and the run reports per-layer medians instead.
//
// The last stdout line is the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

namespace perfbench {

namespace json = quarc::json;

std::map<std::string, std::map<std::int64_t, double>> Tracer::self_ms() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
  }
  std::map<std::string, std::map<std::int64_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name][spans_[i].op] += ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
  }
  return out;
}

std::map<std::string, std::map<std::int64_t, double>> Tracer::total_ms() const {
  std::map<std::string, std::map<std::int64_t, double>> out;
  for (const Span& s : spans_) out[s.name][s.op] += ms_between(s.start, s.end);
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  const Clock::time_point t0 = spans_.empty() ? Clock::now() : spans_.front().start;
  auto ns = [&](Clock::time_point t) {
    return static_cast<std::int64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count());
  };
  for (const Span& s : spans_) {
    json::Value v = json::Value::object();
    v.set("span", s.name);
    v.set("start_ns", ns(s.start));
    v.set("end_ns", ns(s.end));
    v.set("parent", s.parent);
    v.set("op", s.op);
    f << v.dump() << "\n";
  }
  for (const auto& [key, value] : counters_) {
    json::Value v = json::Value::object();
    v.set("counter", key.second);
    v.set("op", key.first);
    v.set("value", value);
    f << v.dump() << "\n";
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// Object `obj` with member `key` replaced by `value` (order kept).
json::Value with_member(const json::Value& obj, std::string_view key, json::Value value) {
  json::Value out = json::Value::object();
  for (const auto& [k, v] : obj.as_object()) out.set(k, k == key ? value : v);
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload scale_points|sim_validate|serve_mix"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds < 1 || a.seconds > 600) usage("--seconds must be in [1, 600]");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "scale_points") return make_scale_points();
  if (a.workload == "sim_validate") return make_sim_validate();
  if (a.workload == "serve_mix") return make_serve_mix();
  usage("unknown workload '" + a.workload + "'");
}

/// Timings from a Debug or sanitizer build say nothing about the Release
/// program, so such a build refuses to run.
void refuse_unoptimized_build() {
  std::string type = PERFBENCH_BUILD_TYPE;
  std::transform(type.begin(), type.end(), type.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  const char* why = nullptr;
  if (type == "debug" || type.empty()) why = "refused_debug_build";
  if (std::strlen(PERFBENCH_SANITIZE) > 0) why = "refused_sanitizer_build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "refused_sanitizer_build";
#endif
#ifndef NDEBUG
  if (why == nullptr) why = "refused_debug_build";
#endif
  if (why != nullptr) {
    std::cerr << "perfbench: " << why << " (CMAKE_BUILD_TYPE='" << PERFBENCH_BUILD_TYPE
              << "', QUARC_SANITIZE='" << PERFBENCH_SANITIZE
              << "'); configure with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n";
    std::exit(3);
  }
}

json::Value environment() {
  json::Value env = json::Value::object();
  env.set("compiler", std::string(__VERSION__));
  env.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  env.set("quarc_native", PERFBENCH_NATIVE != 0);
  env.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  env.set("threads", 1);
  env.set("sim_engine", "active");
  return env;
}

/// The verifier self-test: outputs damaged three ways must each fail both
/// the run's own check and the independent reference check. Records each
/// damage's outcome in `report`; returns an empty string when all three
/// were caught.
std::string self_test(Workload& w, json::Value& report) {
  const auto [k, good] = w.sample_output();
  if (good.empty()) return "no verified output to damage";
  if (!w.verify(k, good).ok || !w.check_reference(k, good).ok) {
    return "the undamaged sample failed verification";
  }
  const json::Value doc = json::Value::parse(good);
  const std::vector<json::Value>& rows = doc.at("rows").as_array();
  // A latency scaled by 10%.
  json::Value scaled = json::Value::array();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const json::Value& model = rows[i].at("model");
    const double lat = model.at("unicast_latency").as_double();
    scaled.push_back(i == 0 ? with_member(rows[i], "model",
                                          with_member(model, "unicast_latency", lat * 1.1))
                            : rows[i]);
  }
  // A dropped row.
  json::Value dropped = json::Value::array();
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) dropped.push_back(rows[i]);
  const std::pair<const char*, std::string> damaged[] = {
      {"latency scaled by 10%", with_member(doc, "rows", scaled).dump()},
      {"row dropped", with_member(doc, "rows", dropped).dump()},
      {"error line instead of rows", R"({"schema":1,"error":"damaged output"})"},
  };
  std::string error;
  for (const auto& [what, bytes] : damaged) {
    const bool caught = !w.verify(k, bytes).ok && !w.check_reference(k, bytes).ok;
    report.set(what, caught ? "caught" : "missed");
    if (!caught && error.empty()) error = std::string("verifier accepted an output with ") + what;
  }
  return error;
}

/// Per-layer metric names and units, in report order. Layers a workload
/// never calls report 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"topo.build_ms", "ms"},
    {"traffic.pattern_ms", "ms"},
    {"traffic.validate_ms", "ms"},
    {"route.plan_ms", "ms"},
    {"model.flow_graph_ms", "ms"},
    {"model.stencil_ms", "ms"},
    {"model.ctor_ms", "ms"},
    {"model.evaluate_ms", "ms"},
    {"model.solver_iterations", "count"},
    {"sweep.probe_ms", "ms"},
    {"sweep.probe_solves", "count"},
    {"sweep.probe_iterations", "count"},
    {"sweep.spine_ms", "ms"},
    {"sweep.points_ms", "ms"},
    {"sweep.solve_lanes", "count"},
    {"api.result_set_ms", "ms"},
    {"sim.build_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.cycles_executed", "count"},
    {"sim.cycles_skipped_share", "ratio"},
    {"sim.channel_visits", "count"},
    {"sim.mcycles_per_s", "Mcycles/s"},
    {"model.sim_err", "ratio"},
    {"util.json_parse_ms", "ms"},
    {"batch.spec_parse_ms", "ms"},
    {"batch.fingerprint_ms", "ms"},
    {"batch.run_ms", "ms"},
    {"api.to_json_ms", "ms"},
    {"batch.hit_ms", "ms"},
    {"batch.miss_ms", "ms"},
    {"batch.error_ms", "ms"},
    {"sweep.store_hit_ratio", "ratio"},
    {"batch.artifact_reuse_ratio", "ratio"},
    {"trace.op_ms_p50", "ms"},
    {"trace.untraced_op_ms_p50", "ms"},
    {"trace.overhead_ms", "ms"},
};

/// Median over the operations that have a value.
double median_of(const std::map<std::int64_t, double>& per_op) {
  std::vector<double> v;
  v.reserve(per_op.size());
  for (const auto& [op, value] : per_op) v.push_back(value);
  return quantile(std::move(v), 0.5);
}

std::map<std::string, double> layer_report(const Tracer& t, const Workload& w,
                                           const std::vector<double>& traced_ms,
                                           const std::vector<double>& untraced_ms) {
  std::map<std::string, double> out;
  const auto self = t.self_ms();
  for (const auto& [name, per_op] : self) out[name + "_ms"] = median_of(per_op);
  // A serve request's class span is reported inclusive: the whole request.
  const auto totals = t.total_ms();
  for (const char* cls : {"batch.hit", "batch.miss", "batch.error"}) {
    if (const auto it = totals.find(cls); it != totals.end()) out[std::string(cls) + "_ms"] = median_of(it->second);
  }
  std::map<std::string, std::map<std::int64_t, double>> counters;
  for (const auto& [key, value] : t.counters()) counters[key.second][key.first] = value;
  for (const auto& [name, per_op] : counters) out[name] = median_of(per_op);
  if (const auto it = counters.find("sim.cycles_executed"); it != counters.end()) {
    std::map<std::int64_t, double> share;
    const auto& skipped = counters.at("sim.cycles_skipped");
    for (const auto& [op, executed] : it->second) {
      share[op] = skipped.at(op) / std::max(1.0, executed + skipped.at(op));
    }
    out["sim.cycles_skipped_share"] = median_of(share);
    std::map<std::int64_t, double> rate;
    const auto& run_ms = self.at("sim.run");
    for (const auto& [op, cycles] : counters.at("sim.cycles_run")) {
      rate[op] = cycles / (run_ms.at(op) * 1e3);
    }
    out["sim.mcycles_per_s"] = median_of(rate);
  }
  w.layer_metrics(out);
  out["trace.op_ms_p50"] = quantile(traced_ms, 0.5);
  out["trace.untraced_op_ms_p50"] = quantile(untraced_ms, 0.5);
  out["trace.overhead_ms"] = out["trace.op_ms_p50"] - out["trace.untraced_op_ms_p50"];
  return out;
}

/// Deterministic counters must read the same on every repeat of one
/// distinct operation; returns the operations where they did not.
std::set<std::int64_t> unstable_counters(const Tracer& t, const Workload& w) {
  std::map<std::pair<std::size_t, std::string>, double> first;
  std::set<std::int64_t> bad;
  for (const auto& [key, value] : t.counters()) {
    const auto d = w.distinct_of(static_cast<std::size_t>(key.first));
    const auto [it, fresh] = first.emplace(std::make_pair(d, key.second), value);
    if (!fresh && it->second != value) bad.insert(key.first);
  }
  return bad;
}

/// The reference kernel's time that reported times are scaled to: about
/// its median on the 4-core Xeon VM the benchmark was written on.
constexpr double kNominalRefMs = 7.0;

/// Keeps the reference kernel's work from being optimised away.
volatile std::uint64_t g_reference_sink = 0;

/// A fixed reference kernel that calls no library code: copy, sort and
/// hash 64 Ki words, fill a 4 Ki-node std::map, and run a division chain.
/// Returns its wall time in ms. Timed all through a run, its median tracks
/// how fast the host is running during that run: the host's speed drifts
/// by up to 40% from run to run, and the kernel drifts with it.
double reference_kernel_ms() {
  static const std::vector<std::uint32_t> data = [] {
    std::vector<std::uint32_t> v(1 << 16);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t& w : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = static_cast<std::uint32_t>(x);
    }
    return v;
  }();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::uint32_t> v = data;
  std::sort(v.begin(), v.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t w : v) h = (h ^ w) * 0x100000001b3ULL;
  std::map<std::uint32_t, std::uint32_t> m;
  for (std::size_t i = 0; i < 4096; ++i) m.emplace(data[i], static_cast<std::uint32_t>(i));
  double y = 1.0;
  for (std::size_t i = 0; i < 20000; ++i) y = y / (1.0 + static_cast<double>((h >> (i & 31)) & 7) * 1e-3) + 0.5;
  g_reference_sink = h + m.size() + static_cast<std::uint64_t>(y);
  return ms_between(t0, Clock::now());
}

/// The process's resident-set high-water mark. Read from VmHWM rather than
/// getrusage's ru_maxrss, which Linux carries across execve, so it would
/// report the launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int run(const Args& a) {
  // Pin the environment: explicit threads and engine are passed on every
  // call, and the variables that would otherwise override defaults deep
  // inside the library are dropped.
  ::unsetenv("QUARC_THREADS");
  ::unsetenv("QUARC_SIM_ENGINE");
  refuse_unoptimized_build();

  std::unique_ptr<Workload> w = make_workload(a);
  // A traced run does half the operations, each of them twice.
  const std::size_t ops = w->op_count(a.trace ? std::max(1, a.seconds / 2) : a.seconds);

  // A traced run reports no setup_s, so it sets up once.
  const int setup_reps = a.trace ? 1 : 9;
  std::vector<double> setup_s;
  std::vector<double> setup_ref_ms;
  for (int rep = 0; rep < setup_reps; ++rep) {
    for (int i = 0; i < 3; ++i) setup_ref_ms.push_back(reference_kernel_ms());  // untimed
    const Clock::time_point t0 = Clock::now();
    w = make_workload(a);
    w->setup(a.seed, ops, a.trace);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  std::vector<Check> checks(ops);
  std::vector<double> op_ms;
  std::vector<double> traced_ms;
  op_ms.reserve(ops);
  Tracer tracer;
  // About 200 reference-kernel samples per run, between operations.
  std::vector<double> ref_ms;
  const std::size_t ref_every = std::max<std::size_t>(1, ops / 200);
  w->run_ops(ops, [&](std::size_t k, double ms, const std::string& bytes) {
    op_ms.push_back(ms);
    if (k % ref_every == 0) ref_ms.push_back(reference_kernel_ms());
    checks[k] = w->verify(k, bytes);
    if (!a.trace) return;
    tracer.begin_op(static_cast<std::int64_t>(k));
    const Clock::time_point t0 = Clock::now();
    const std::string replayed = w->replay(k, tracer);
    traced_ms.push_back(ms_between(t0, Clock::now()));
    if (checks[k].ok && replayed != bytes) {
      checks[k] = {false, "traced replay output differs from the untraced run"};
    }
  });
  w->verify_deferred(checks);
  std::string replay_error;
  if (a.trace) {
    for (const std::int64_t k : unstable_counters(tracer, *w)) {
      checks[static_cast<std::size_t>(k)] = {false, "deterministic counters differ between repeats"};
    }
    replay_error = w->replay_divergence(quantile(traced_ms, 0.5), quantile(op_ms, 0.5));
  }
  json::Value self_test_report = json::Value::object();
  const std::string self_test_error = self_test(*w, self_test_report);

  std::size_t failed = 0;
  json::Value failures = json::Value::array();
  for (std::size_t k = 0; k < ops; ++k) {
    if (checks[k].ok) continue;
    ++failed;
    if (failures.as_array().size() < 5) failures.push_back("op " + std::to_string(k) + ": " + checks[k].why);
  }
  if (!self_test_error.empty()) failures.push_back("verifier self-test: " + self_test_error);
  if (!replay_error.empty()) failures.push_back("traced replay: " + replay_error);

  json::Value metrics = json::Value::object();
  auto metric = [&](const std::string& name, double value, const char* unit) {
    json::Value m = json::Value::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  };
  // Each phase is scaled by the kernel samples taken during it.
  const double setup_scale = kNominalRefMs / quantile(setup_ref_ms, 0.5);
  const double op_scale = kNominalRefMs / quantile(ref_ms, 0.5);
  if (a.trace) {
    const std::map<std::string, double> layers = layer_report(tracer, *w, traced_ms, op_ms);
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layers.find(name);
      double value = it == layers.end() ? 0.0 : it->second;
      if (std::strcmp(unit, "ms") == 0) value *= op_scale;
      if (std::strcmp(unit, "Mcycles/s") == 0) value /= op_scale;
      metric(name, value, unit);
    }
    if (!a.trace_out.empty()) tracer.write_jsonl(a.trace_out);
  } else {
    metric("setup_s", quantile(setup_s, 0.5) * setup_scale, "s");
    metric("op_ms_p50", quantile(op_ms, 0.5) * op_scale, "ms");
    metric("op_ms_p90", quantile(op_ms, 0.9) * op_scale, "ms");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
    metric("ok_share", static_cast<double>(ops - failed) / static_cast<double>(ops), "ratio");
  }
  json::Value summary = json::Value::object();
  summary.set("workload", a.workload);
  summary.set("seed", a.seed);
  summary.set("trace", a.trace);
  summary.set("samples", static_cast<std::int64_t>(ops));
  std::map<std::string, std::vector<double>> by_class;
  for (std::size_t k = 0; k < ops; ++k) by_class[w->op_class(k)].push_back(op_ms[k]);
  json::Value classes = json::Value::object();
  for (const auto& [cls, v] : by_class) {
    json::Value c = json::Value::object();
    c.set("ops", static_cast<std::int64_t>(v.size()));
    c.set("op_ms_p10", quantile(v, 0.1));
    c.set("op_ms_p50", quantile(v, 0.5));
    c.set("op_ms_p90", quantile(v, 0.9));
    classes.set(cls, std::move(c));
  }
  summary.set("classes", std::move(classes));
  json::Value setups = json::Value::array();
  for (const double s : setup_s) setups.push_back(s);
  summary.set("setup_s_reps", std::move(setups));
  // The unscaled figures.
  summary.set("raw_setup_s", quantile(setup_s, 0.5));
  summary.set("raw_op_ms_p50", quantile(op_ms, 0.5));
  summary.set("raw_op_ms_p90", quantile(op_ms, 0.9));
  summary.set("setup_ref_ms", quantile(setup_ref_ms, 0.5));
  summary.set("ref_ms", quantile(ref_ms, 0.5));
  summary.set("env", environment());
  summary.set("verifier_self_test", std::move(self_test_report));
  summary.set("failures", std::move(failures));
  std::cout << summary.dump() << "\n";

  json::Value result = json::Value::object();
  result.set("correct", failed == 0 && self_test_error.empty() && replay_error.empty());
  result.set("attempted", static_cast<std::int64_t>(ops));
  result.set("failed", static_cast<std::int64_t>(failed));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
