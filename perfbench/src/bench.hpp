// perfbench — shared pieces of the in-process benchmark runner.
//
// A workload is a fixed list of operations generated from a seed. The
// runner (main.cpp) times each operation with tracing off, verifies its
// output outside the timed region, and in a separate traced run replays
// each operation as the sequence of public library calls it is made of,
// timing every call from here — the library itself is not instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "quarc/util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// In-memory span and counter recorder for the traced run. Spans nest by
/// call order (a span's parent is the innermost span open when it began);
/// every span and counter carries the operation it belongs to.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index into spans(), -1 for an operation root
    std::int64_t op = 0;
  };

  void begin_op(std::int64_t op) { op_ = op; }

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), Clock::now(), {}, parent, op_});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
    stack_.pop_back();
  }
  /// Renames an open or closed span (a serve request's class is known
  /// only after it has been answered).
  void rename(int index, std::string name) {
    spans_[static_cast<std::size_t>(index)].name = std::move(name);
  }

  template <class F>
  decltype(auto) span(std::string name, F&& body) {
    struct Closer {
      Tracer* t;
      int i;
      ~Closer() { t->close(i); }
    } closer{this, open(std::move(name))};
    return body();
  }

  /// Adds `value` to the operation's counter `name`.
  void count(const std::string& name, double value) { counters_[{op_, name}] += value; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::pair<std::int64_t, std::string>, double>& counters() const {
    return counters_;
  }

  /// Per operation, the summed self time (duration minus the time its
  /// child spans cover) of every span name: result[name][op] in ms.
  std::map<std::string, std::map<std::int64_t, double>> self_ms() const;
  /// Per operation, the summed inclusive duration of every span name.
  std::map<std::string, std::map<std::int64_t, double>> total_ms() const;

  /// Writes every span (name, start/end in ns from the first span, parent,
  /// op) and counter as JSON lines.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::pair<std::int64_t, std::string>, double> counters_;
  std::int64_t op_ = 0;
};

/// Linear-interpolation quantile (numpy's default) of an unsorted sample.
double quantile(std::vector<double> values, double q);

/// One operation's outcome as seen by the verifier.
struct Check {
  bool ok = true;
  std::string why;  ///< first failure, for the report
};

/// A benchmark workload. Operations are numbered 0..op_count()-1 and the
/// same seed always yields the same operations and outputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed`, warms every distinct operation once
  /// and pins its output (and, for serve_mix, primes the result store).
  /// `ops` is the run's operation count; `traced` asks for the state the
  /// traced replay needs. Everything here counts as set-up time.
  virtual void setup(std::uint64_t seed, std::size_t ops, bool traced) = 0;
  /// Fixed operation count for a run of nominal length `seconds`.
  virtual std::size_t op_count(int seconds) const = 0;
  /// Called after each operation with its wall time and output bytes,
  /// outside the timed region.
  using OpDone = std::function<void(std::size_t k, double ms, const std::string& bytes)>;
  /// Runs operations 0..ops-1 in order, untraced, timing each one alone.
  virtual void run_ops(std::size_t ops, const OpDone& done) = 0;
  /// Replays operation `k` as its decomposed sequence of public calls,
  /// each under a span; returns the replay's output bytes.
  virtual std::string replay(std::size_t k, Tracer& tracer) = 0;
  /// Verifies operation `k`'s output bytes (never inside a timed region)
  /// against what the run itself pinned: its warm-up digest, or for a
  /// serve hit the response that stored the point.
  virtual Check verify(std::size_t k, const std::string& bytes) = 0;
  /// Checks bytes given as operation `k`'s output against a result the
  /// run did not produce itself: a committed baseline or an oracle solve.
  virtual Check check_reference(std::size_t k, const std::string& bytes) = 0;
  /// Checks that could only run once the timed loop ended (the reference
  /// checks); marks the operations that failed them.
  virtual void verify_deferred(std::vector<Check>& checks) = 0;
  /// An operation index plus output bytes that verify() and
  /// check_reference() accepted, for the verifier self-test to damage.
  virtual std::pair<std::size_t, std::string> sample_output() const = 0;
  /// Workload-level per-layer metrics that are not span or counter
  /// medians (ratios over the whole run), added to the traced report.
  virtual void layer_metrics(std::map<std::string, double>& out) const { (void)out; }
  /// After a traced run: why the replay no longer tracks the library's
  /// calls (counts the library reports that the replay did not make, or
  /// a traced p50 too far from the untraced one); empty when it does.
  virtual std::string replay_divergence(double traced_p50, double untraced_p50) const = 0;
  /// Which distinct operation `k` repeats (its deterministic counters must
  /// match every other repeat); k itself when operations never repeat.
  virtual std::size_t distinct_of(std::size_t k) const { return k; }
  /// The cost class operation `k` belongs to (reported per class).
  virtual std::string op_class(std::size_t k) const = 0;
};

std::unique_ptr<Workload> make_scale_points();
std::unique_ptr<Workload> make_sim_validate();
std::unique_ptr<Workload> make_serve_mix();

}  // namespace perfbench
