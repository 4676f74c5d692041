// serve_mix: one in-process batch::serve loop fed a seeded request stream
// by a single client in a closed loop (serve answers one line at a time
// and its callers wait for each reply). serve runs on the benchmark's own thread
// and reads from a stream that yields the next request only once the
// previous response has been written; each request is timed from the
// moment its line is handed over to the moment its response's newline is
// written.
//
// The stream repeats, in seeded order within every block of 40 requests
// over three base scenarios (quarc:16, spidergon:16, mesh:4x4):
//   30 hits          a point answered before, served from the
//                    (fingerprint, rate) store: 12 quarc, 12 spidergon,
//                    6 mesh
//    7 solve misses  a new rate on a scenario whose artifacts exist:
//                    5 quarc, 1 spidergon, 1 mesh
//    1 compile miss  a new pattern seed, so the plan and flow graph are
//                    compiled too (the scenario then joins the pool)
//    2 errors        hostile or malformed lines
// A mesh hit costs about eight ring hits (the mesh's generic diameter()
// scan runs on every request), so the counts are exact per block: ring
// hits and errors fill p0-p65 with p50 among the ring hits, mesh hits
// p65-p80, and misses p80-p100 with p90 among the quarc solve misses.
//
// Verification: a hit's fp and rows must be byte-identical to the
// response that stored the point; every miss is re-solved after the timed
// loop by a cold private Scenario and must match it; every hostile line
// must get an error response naming the problem, identical to its
// warm-up response. The traced replay must move the store and artifact
// cache counters exactly as the untraced serve loop moved its own.
#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "bench.hpp"
#include "quarc/api/scenario.hpp"
#include "quarc/batch/batch_runner.hpp"
#include "quarc/batch/scenario_set.hpp"
#include "quarc/batch/serve.hpp"
#include "quarc/util/hash.hpp"
#include "quarc/util/rng.hpp"

namespace perfbench {
namespace {

namespace json = quarc::json;

/// serve()'s input in the closed loop: serve pulls the next request line
/// only after it has written the previous response, so the client's
/// bookkeeping (`next`) runs between requests, outside their timing.
class ClientBuf final : public std::streambuf {
 public:
  explicit ClientBuf(std::function<bool(std::string&)> next) : next_(std::move(next)) {}

 protected:
  int_type underflow() override {
    if (!next_(buf_)) return traits_type::eof();
    setg(buf_.data(), buf_.data(), buf_.data() + buf_.size());
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  std::function<bool(std::string&)> next_;
  std::string buf_;
};

/// serve()'s output: hands each response line (without '\n') to `done`
/// the moment its newline is written.
class ResponseBuf final : public std::streambuf {
 public:
  explicit ResponseBuf(std::function<void(std::string)> done) : done_(std::move(done)) {}

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) put(traits_type::to_char_type(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      line_.push_back(c);
      return;
    }
    done_(std::move(line_));
    line_.clear();
  }
  std::function<void(std::string)> done_;
  std::string line_;
};

enum class ReqClass { Hit, SolveMiss, CompileMiss, Error };

struct Request {
  std::string line;
  ReqClass cls = ReqClass::Hit;
  std::string point;         ///< canonical point key (line without the id)
  std::size_t topology = 0;  ///< index into the base scenarios (not for errors)
  std::size_t hostile = 0;   ///< index into kHostile for errors
};

struct ScenarioKey {
  std::string topology;
  std::uint64_t seed = 0;
  double saturation = 0.0;
};

/// Hostile or malformed lines, each with a phrase its error must contain.
/// Every error here is raised inside the library (or by serve's own
/// unknown-cmd branch), so the replay reproduces its bytes too.
const std::pair<const char*, const char*> kHostile[] = {
    {R"({"topology":"quarc:16","pattern":"random:3","alpha":0.05,"rate":)", "json"},
    {R"({"topology":"nosuch:9","rate":0.001})", "nosuch"},
    {R"({"topology":"quarc:16","pattern":"random:3","alpha":0.05,"rate":0.002,"bogus":1})",
     "bogus"},
    {R"({"cmd":"explode"})", "explode"},
    {R"({"topology":"quarc:16","pattern":"random:3","alpha":"lots","rate":0.002})", "not a number"},
    {R"({"topology":"quarc:16","pattern":"random:3","alpha":1.5,"rate":0.002})", "multicast fraction"},
};

class ServeMix final : public Workload {
  static constexpr std::size_t kBlock = 40;
  static constexpr std::size_t kPrimedRates = 8;
  /// Per block and base scenario (quarc:16, spidergon:16, mesh:4x4): the
  /// exact request counts, so no seed shifts a percentile across a class
  /// boundary. Mesh hits cost ~8x a ring hit, so they are kept to a
  /// fixed sixth of the hits; most solve misses are on quarc:16.
  static constexpr std::size_t kHitsPerBlock[] = {12, 12, 6};
  static constexpr std::size_t kSolveMissesPerBlock[] = {5, 1, 1};

 public:
  std::size_t op_count(int seconds) const override {
    // Whole blocks, at least 1000 requests so p90 has ten samples above
    // it inside the solve-miss class.
    const auto wanted = std::max<std::size_t>(1000, static_cast<std::size_t>(4500.0 * seconds));
    return (wanted + kBlock - 1) / kBlock * kBlock;
  }

  void setup(std::uint64_t seed, std::size_t ops, bool traced) override {
    stream_.clear();
    stored_rows_.clear();
    store_ = std::make_shared<quarc::SweepCache>();
    artifacts_ = std::make_shared<quarc::batch::ArtifactCache>();
    replay_store_ = std::make_shared<quarc::SweepCache>();
    replay_artifacts_ = std::make_shared<quarc::batch::ArtifactCache>();
    quarc::Rng rng(seed);
    keys_.clear();
    for (const auto& [topo, sat] : {std::pair<const char*, double>{"quarc:16", 0.0082},
                                    {"spidergon:16", 0.0074},
                                    {"mesh:4x4", 0.0118}}) {
      keys_.push_back({topo, rng.next_u64() % 1000000, sat});
    }
    // Prime the store: kPrimedRates rates per base scenario. Their responses are
    // what later hits must reproduce.
    prime_.clear();
    for (const ScenarioKey& key : keys_) {
      for (std::size_t i = 0; i < kPrimedRates; ++i) {
        prime_.push_back(point_line(key, key.saturation * (0.1 + 0.06 * static_cast<double>(i))));
      }
    }
    const std::vector<std::string> primed = serve_lines(prime_);
    for (std::size_t i = 0; i < prime_.size(); ++i) {
      if (!record_stored(prime_[i], primed[i])) throw std::runtime_error("priming failed: " + primed[i]);
      // The traced replay keeps its own store in the same state.
      if (traced) (void)replay_request(prime_[i], nullptr);
    }
    // Warm-up of every hostile line: pins its response.
    std::vector<std::string> hostile;
    for (const auto& [line, phrase] : kHostile) hostile.emplace_back(line);
    const std::vector<std::string> answered = serve_lines(hostile);
    hostile_pins_.clear();
    for (std::size_t i = 0; i < hostile.size(); ++i) {
      const Check c = check_error(answered[i], kHostile[i].second);
      if (!c.ok) throw std::runtime_error("hostile warm-up: " + c.why);
      hostile_pins_.push_back(quarc::fnv1a64(answered[i]));
      if (traced) (void)replay_request(hostile[i], nullptr);
    }
    generate_stream(rng, ops);
    live_base_ = counters(*store_, *artifacts_);
    replay_base_ = counters(*replay_store_, *replay_artifacts_);
  }

  void run_ops(std::size_t ops, const OpDone& done) override {
    std::size_t sent = 0;
    bool awaiting = false;
    Clock::time_point start;
    Clock::time_point end;
    std::string response;
    std::exception_ptr failure;
    ClientBuf in_buf([&](std::string& line) {
      // An exception must not escape into serve's istream, which would
      // swallow it and end the loop as if at EOF.
      try {
        if (awaiting) done(sent - 1, ms_between(start, end), response);
      } catch (...) {
        failure = std::current_exception();
        return false;
      }
      awaiting = false;
      if (sent == ops) return false;
      line = stream_[sent++].line + "\n";
      awaiting = true;
      start = Clock::now();
      return true;
    });
    ResponseBuf out_buf([&](std::string r) {
      end = Clock::now();
      response = std::move(r);
    });
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    std::ostream err(nullptr);  // no buffer: serve's log lines are discarded
    quarc::batch::serve(in, out, err, options());
    if (failure) std::rethrow_exception(failure);
  }

  std::string replay(std::size_t k, Tracer& t) override { return replay_request(stream_[k].line, &t); }

  Check verify(std::size_t k, const std::string& bytes) override {
    const Request& r = stream_[k];
    if (r.cls == ReqClass::Error) {
      if (quarc::fnv1a64(bytes) != hostile_pins_[r.hostile]) {
        return {false, "error response differs from its warm-up"};
      }
      return check_error(bytes, kHostile[r.hostile].second);
    }
    json::Value doc;
    try {
      doc = json::Value::parse(bytes);
    } catch (const std::exception& e) {
      return {false, std::string("unparseable response: ") + e.what()};
    }
    const json::Value* rows = doc.find("rows");
    const json::Value* fp = doc.find("fp");
    if (rows == nullptr || fp == nullptr) return {false, "no rows in response: " + bytes};
    const std::string got = fp->dump() + rows->dump();
    if (r.cls == ReqClass::Hit) {
      const auto it = stored_rows_.find(r.point);
      if (it == stored_rows_.end()) return {false, "hit on a point never stored"};
      if (it->second != got) return {false, "hit differs from the response that stored it"};
      const json::Value* served = doc.find("served");
      if (served == nullptr || served->as_int() != 1) return {false, "hit was not served from the store"};
      if (sample_.second.empty()) sample_ = {k, bytes};
      return {};
    }
    // A miss: stored for later hits, re-solved cold after the loop. A
    // point may be stored only once.
    const json::Value* solved = doc.find("solved");
    if (solved == nullptr || solved->as_int() != 1) return {false, "new point was not solved"};
    if (!stored_rows_.emplace(r.point, got).second) return {false, "miss on a stored point"};
    deferred_.push_back(k);
    return {};
  }

  Check check_reference(std::size_t k, const std::string& bytes) override {
    const Request& r = stream_[k];
    if (r.cls == ReqClass::Error) return check_error(bytes, kHostile[r.hostile].second);
    const std::string cold = cold_rows({k}).front();
    try {
      const json::Value doc = json::Value::parse(bytes);
      const json::Value* rows = doc.find("rows");
      const json::Value* fp = doc.find("fp");
      if (rows != nullptr && fp != nullptr && fp->dump() + rows->dump() == cold) return {};
    } catch (const std::exception&) {
    }
    return {false, "response differs from a cold solve: " + cold};
  }

  void verify_deferred(std::vector<Check>& checks) override {
    // One cold sweep per scenario over all of its missed rates: a point's
    // result does not depend on the grid it is solved in.
    std::map<std::string, std::vector<std::size_t>> by_scenario;
    for (const std::size_t k : deferred_) {
      if (checks[k].ok) by_scenario[scenario_of(stream_[k].point)].push_back(k);
    }
    deferred_.clear();
    for (const auto& [scenario, ks] : by_scenario) {
      const std::vector<std::string> cold = cold_rows(ks);
      for (std::size_t i = 0; i < ks.size(); ++i) {
        if (stored_rows_.at(stream_[ks[i]].point) != cold[i]) {
          checks[ks[i]] = {false, "miss differs from a cold solve: " + cold[i]};
        }
      }
    }
  }

  std::pair<std::size_t, std::string> sample_output() const override {
    // The first hit the verifier accepted (hits verify idempotently).
    return sample_;
  }

  std::string replay_divergence(double traced_p50, double untraced_p50) const override {
    // serve's own line loop is not replayed, so the replay runs faster
    // than the loop (about 0.8x); the counters must match exactly.
    (void)traced_p50;
    (void)untraced_p50;
    const std::vector<std::int64_t> live = counters(*store_, *artifacts_);
    const std::vector<std::int64_t> replayed = counters(*replay_store_, *replay_artifacts_);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i] - live_base_[i] != replayed[i] - replay_base_[i]) {
        return "the replay moved store or artifact-cache counter " + std::to_string(i) + " by " +
               std::to_string(replayed[i] - replay_base_[i]) + ", serve by " +
               std::to_string(live[i] - live_base_[i]);
      }
    }
    return {};
  }

  void layer_metrics(std::map<std::string, double>& out) const override {
    const quarc::SweepCacheStats s = replay_store_->stats();
    out["sweep.store_hit_ratio"] =
        static_cast<double>(s.hits) / static_cast<double>(std::max<std::int64_t>(1, s.hits + s.misses));
    const quarc::batch::ArtifactCacheStats a = replay_artifacts_->stats();
    out["batch.artifact_reuse_ratio"] =
        static_cast<double>(a.plans_reused) /
        static_cast<double>(std::max<std::int64_t>(1, a.plans_reused + a.plans_compiled));
  }

  std::string op_class(std::size_t k) const override {
    switch (stream_[k].cls) {
      case ReqClass::Hit:
        return "hit " + keys_[stream_[k].topology].topology;
      case ReqClass::SolveMiss:
        return "solve_miss " + keys_[stream_[k].topology].topology;
      case ReqClass::CompileMiss:
        return "compile_miss";
      case ReqClass::Error:
        break;
    }
    return "error";
  }

 private:
  quarc::batch::ServeOptions options() const {
    quarc::batch::ServeOptions o;
    o.threads = 1;
    o.cache = store_;
    o.artifacts = artifacts_;
    return o;
  }

  /// Answers `lines` through serve on the timed store (set-up only).
  std::vector<std::string> serve_lines(const std::vector<std::string>& lines) const {
    std::string text;
    for (const std::string& l : lines) text += l + "\n";
    std::istringstream in(text);
    std::ostringstream out;
    std::ostream err(nullptr);
    quarc::batch::serve(in, out, err, options());
    std::vector<std::string> responses;
    std::istringstream split(out.str());
    for (std::string r; std::getline(split, r);) responses.push_back(r);
    if (responses.size() != lines.size()) throw std::runtime_error("serve skipped a set-up line");
    return responses;
  }

  /// Store hits, misses and stores, then plans and flow graphs compiled
  /// and reused.
  static std::vector<std::int64_t> counters(const quarc::SweepCache& store,
                                            const quarc::batch::ArtifactCache& artifacts) {
    const quarc::SweepCacheStats s = store.stats();
    const quarc::batch::ArtifactCacheStats a = artifacts.stats();
    return {s.hits, s.misses, s.stores, a.plans_compiled, a.plans_reused, a.flows_compiled, a.flows_reused};
  }

  static std::string point_line(const ScenarioKey& key, double rate) {
    std::ostringstream os;
    os << R"({"topology":")" << key.topology << R"(","pattern":"random:3","alpha":0.05,"seed":)"
       << key.seed << R"(,"rate":)" << json::format_number(rate) << "}";
    return os.str();
  }

  /// Records a successful response's fp + rows under its point key.
  bool record_stored(const std::string& point, const std::string& resp) {
    const json::Value doc = json::Value::parse(resp);
    const json::Value* rows = doc.find("rows");
    const json::Value* fp = doc.find("fp");
    if (rows == nullptr || fp == nullptr) return false;
    stored_rows_[point] = fp->dump() + rows->dump();
    return true;
  }

  static Check check_error(const std::string& bytes, const char* phrase) {
    try {
      const json::Value doc = json::Value::parse(bytes);
      const json::Value* err = doc.find("error");
      if (err == nullptr || !err->is_string() || doc.find("rows") != nullptr) {
        return {false, "expected an error response, got: " + bytes};
      }
      if (err->as_string().find(phrase) == std::string::npos) {
        return {false, "error does not name '" + std::string(phrase) + "': " + err->as_string()};
      }
    } catch (const std::exception& e) {
      return {false, std::string("unparseable error response: ") + e.what()};
    }
    return {};
  }

  /// The point line without its rate: the scenario it belongs to.
  static std::string scenario_of(const std::string& point) {
    return point.substr(0, point.find(R"(,"rate":)"));
  }

  /// fp + rows of each of `ks` (misses of one scenario), solved by a cold
  /// Scenario with no store and no shared artifacts, in the form
  /// record_stored() keeps.
  std::vector<std::string> cold_rows(const std::vector<std::size_t>& ks) const {
    try {
      json::Value rates = json::Value::array();
      for (const std::size_t k : ks) {
        rates.push_back(json::Value::parse(stream_[k].point).at("rate"));
      }
      json::Value spec = json::Value::parse(scenario_of(stream_[ks.front()].point) + "}");
      spec.set("rates", std::move(rates));
      const quarc::batch::ScenarioSet set = quarc::batch::ScenarioSet::parse_text(spec.dump());
      quarc::api::Scenario sc = set[0].make_scenario();
      sc.threads(1);
      const quarc::api::ResultSet rs = sc.run_sweep(set[0].rates);
      const std::string fp = json::Value(sc.fingerprint().hex()).dump();
      std::vector<std::string> out;
      for (const quarc::api::ResultRow& row : rs.rows) {
        json::Value rows = json::Value::array();
        rows.push_back(quarc::api::row_to_json(row));
        out.push_back(fp + rows.dump());
      }
      return out;
    } catch (const std::exception& e) {
      return std::vector<std::string>(ks.size(), std::string("cold re-solve failed: ") + e.what());
    }
  }

  void generate_stream(quarc::Rng& rng, std::size_t n) {
    // Per topology (index into keys_), the point pool hits draw from:
    // primed points first, then every miss once it has been answered (the
    // stream is generated in order, so a hit only names a point stored
    // before it), and the scenarios solve misses draw from.
    std::vector<std::vector<std::string>> pool(keys_.size());
    std::vector<std::vector<ScenarioKey>> keys(keys_.size());
    for (std::size_t t = 0; t < keys_.size(); ++t) {
      keys[t].push_back(keys_[t]);
      pool[t].assign(prime_.begin() + static_cast<std::ptrdiff_t>(t * kPrimedRates),
                     prime_.begin() + static_cast<std::ptrdiff_t>((t + 1) * kPrimedRates));
    }
    std::set<std::string> used(prime_.begin(), prime_.end());
    std::uint64_t id = 0;
    auto pick = [&](std::size_t bound) { return static_cast<std::size_t>(rng.next_u64() % bound); };
    auto new_point = [&](const ScenarioKey& key) {
      for (;;) {
        const double u = static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
        std::string p = point_line(key, key.saturation * (0.1 + 0.5 * u));
        if (used.insert(p).second) return p;
      }
    };
    for (std::size_t block = 0; block < n / kBlock; ++block) {
      std::vector<std::pair<ReqClass, std::size_t>> classes;
      for (std::size_t t = 0; t < keys_.size(); ++t) {
        classes.insert(classes.end(), kHitsPerBlock[t], {ReqClass::Hit, t});
        classes.insert(classes.end(), kSolveMissesPerBlock[t], {ReqClass::SolveMiss, t});
      }
      classes.emplace_back(ReqClass::CompileMiss, block % keys_.size());
      classes.insert(classes.end(), 2, {ReqClass::Error, 0});
      for (std::size_t i = classes.size(); i > 1; --i) std::swap(classes[i - 1], classes[pick(i)]);
      for (const auto& [cls, t] : classes) {
        Request r;
        r.cls = cls;
        r.topology = t;
        switch (cls) {
          case ReqClass::Hit:
            r.point = pool[t][pick(pool[t].size())];
            break;
          case ReqClass::SolveMiss:
            r.point = new_point(keys[t][pick(keys[t].size())]);
            break;
          case ReqClass::CompileMiss: {
            ScenarioKey key = keys_[t];
            key.seed = 1000000 + rng.next_u64() % 1000000000;
            keys[t].push_back(key);
            r.point = new_point(key);
            break;
          }
          case ReqClass::Error:
            r.hostile = pick(std::size(kHostile));
            r.line = kHostile[r.hostile].first;
            break;
        }
        if (cls != ReqClass::Error) {
          // The id rides in front of the point's keys and is echoed back.
          r.line = R"({"id":)" + std::to_string(++id) + "," + r.point.substr(1);
          if (cls != ReqClass::Hit) pool[t].push_back(r.point);
        }
        stream_.push_back(std::move(r));
      }
    }
  }

  /// serve()'s handling of one line, call by call (spans when `t` is set),
  /// against the replay store. Returns the response line without '\n'.
  std::string replay_request(const std::string& line, Tracer* t) {
    auto span = [&](const char* name, auto&& body) -> decltype(body()) {
      if (t == nullptr) return body();
      return t->span(name, body);
    };
    const int root = t != nullptr ? t->open("batch.request") : -1;
    json::Value response = json::Value::object();
    response.set("schema", quarc::batch::kServeSchemaVersion);
    const json::Value* id = nullptr;
    json::Value request;
    std::string out;
    const char* cls = "batch.error";
    try {
      request = span("util.json_parse", [&] { return json::Value::parse(line); });
      if (!request.is_object()) throw quarc::InvalidArgument("request must be a JSON object");
      if ((id = request.find("id")) != nullptr) response.set("id", *id);
      if (const json::Value* cmd = request.find("cmd")) {
        throw quarc::InvalidArgument("unknown cmd '" + cmd->as_string() + "'");
      }
      json::Value spec_doc = json::Value::object();
      for (const auto& [key, value] : request.as_object()) {
        if (key != "id" && key != "rate" && key != "cmd") spec_doc.set(key, value);
      }
      if (const json::Value* rate = request.find("rate")) {
        if (request.find("rates") != nullptr) {
          throw quarc::InvalidArgument("request carries both rate and rates");
        }
        json::Value rates = json::Value::array();
        rates.push_back(*rate);
        spec_doc.set("rates", std::move(rates));
      }
      quarc::batch::ScenarioSet one = span("batch.spec_parse", [&] {
        std::istringstream spec_line(spec_doc.dump());
        return quarc::batch::ScenarioSet::parse(spec_line);
      });
      if (one.size() != 1) throw quarc::InvalidArgument("request must name exactly one scenario");
      const quarc::ScenarioFingerprint fp = span("batch.fingerprint", [&] {
        quarc::api::Scenario keyed = one[0].make_scenario();
        keyed.artifacts(replay_artifacts_);
        return keyed.fingerprint();
      });
      quarc::batch::BatchOptions bo;
      bo.threads = 1;
      bo.cache = replay_store_;
      bo.artifacts = replay_artifacts_;
      quarc::batch::BatchRunner runner(std::move(one), bo);
      const std::vector<quarc::api::ResultSet> results =
          span("batch.run", [&] { return runner.run(nullptr, nullptr); });
      const quarc::api::ResultSet& rs = results.front();
      cls = rs.cache_misses == 0 ? "batch.hit" : "batch.miss";
      out = span("api.to_json", [&] {
        json::Value rows = json::Value::array();
        for (const quarc::api::ResultRow& row : rs.rows) rows.push_back(quarc::api::row_to_json(row));
        response.set("fp", fp.hex());
        response.set("rows", std::move(rows));
        response.set("served", rs.cache_hits);
        response.set("solved", rs.cache_misses);
        response.set("iterations", runner.stats().solved_iterations);
        return response.dump();
      });
    } catch (const std::exception& e) {
      json::Value error = json::Value::object();
      error.set("schema", quarc::batch::kServeSchemaVersion);
      if (id != nullptr) error.set("id", *id);
      error.set("error", std::string(e.what()));
      out = error.dump();
    }
    if (t != nullptr) {
      t->close(root);
      t->rename(root, cls);
    }
    return out;
  }

  std::shared_ptr<quarc::SweepCache> store_;
  std::shared_ptr<quarc::batch::ArtifactCache> artifacts_;
  std::shared_ptr<quarc::SweepCache> replay_store_;
  std::shared_ptr<quarc::batch::ArtifactCache> replay_artifacts_;
  std::vector<ScenarioKey> keys_;
  std::vector<std::string> prime_;
  std::vector<std::uint64_t> hostile_pins_;
  std::vector<Request> stream_;
  std::map<std::string, std::string> stored_rows_;
  std::vector<std::size_t> deferred_;
  std::vector<std::int64_t> live_base_;
  std::vector<std::int64_t> replay_base_;
  std::pair<std::size_t, std::string> sample_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix() { return std::make_unique<ServeMix>(); }

}  // namespace perfbench
