// Shared pieces of the end-to-end benchmark: exact-quantile sample sets,
// the span tracer, result/metric records and the server-style database set-up
// every workload starts from.
#pragma once

#include <algorithm>
#include <cstdio>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gdi/gdi.hpp"
#include "generator/kronecker.hpp"
#include "rma/runtime.hpp"

namespace perfbench {

inline double wall_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

// ---------------------------------------------------------------------------
// Exact quantiles over raw samples (no histogram buckets).
// ---------------------------------------------------------------------------

class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  void merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  /// Nearest-rank quantile: the smallest sample with at least q*n samples at
  /// or below it. 0 for an empty set.
  [[nodiscard]] double quantile(double q) {
    if (v_.empty()) return 0;
    sort();
    const auto n = v_.size();
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return v_[rank - 1];
  }
  /// Samples strictly beyond the nearest-rank position of q.
  [[nodiscard]] std::size_t beyond(double q) const {
    const auto n = v_.size();
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return n > rank ? n - rank : 0;
  }
  [[nodiscard]] double mean() const {
    double s = 0;
    for (double x : v_) s += x;
    return v_.empty() ? 0 : s / static_cast<double>(v_.size());
  }
  [[nodiscard]] double median() { return quantile(0.5); }

 private:
  void sort() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

// ---------------------------------------------------------------------------
// Span tracer. Spans live in per-thread buffers (no lock on the hot path) and
// are written as Chrome trace-event JSON when the run ends.
// ---------------------------------------------------------------------------

struct SpanRec {
  const char* layer = "";
  const char* name = "";
  double start_ns = 0;
  double end_ns = 0;
  std::int64_t parent = -1;  ///< index in the same thread's buffer
  std::uint64_t id = 0;      ///< request identity (client_tag), 0 = none
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return on_.load(std::memory_order_relaxed); }

  struct Buffer {
    int tid = 0;
    std::vector<SpanRec> spans;
    std::vector<std::int64_t> open;  ///< stack of open span indices
    std::uint64_t dropped = 0;
  };
  Buffer& local() {
    thread_local Buffer* b = nullptr;
    if (b == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      bufs_.push_back(std::make_unique<Buffer>());
      b = bufs_.back().get();
      b->tid = static_cast<int>(bufs_.size());
    }
    return *b;
  }
  /// Buffers of every thread that recorded (call after those threads joined).
  [[nodiscard]] const std::vector<std::unique_ptr<Buffer>>& buffers() const {
    return bufs_;
  }
  static constexpr std::size_t kMaxSpansPerThread = 100000;

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> bufs_;
};

/// RAII span around one call into a layer. A no-op when tracing is off.
class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t id = 0) {
    Tracer& t = Tracer::get();
    if (!t.enabled()) return;
    buf_ = &t.local();
    if (buf_->spans.size() >= Tracer::kMaxSpansPerThread) {
      buf_->dropped += 1;
      buf_ = nullptr;
      return;
    }
    SpanRec r;
    r.layer = layer;
    r.name = name;
    r.id = id;
    r.parent = buf_->open.empty() ? -1 : buf_->open.back();
    r.start_ns = wall_ns();
    idx_ = static_cast<std::int64_t>(buf_->spans.size());
    buf_->spans.push_back(r);
    buf_->open.push_back(idx_);
  }
  ~Span() {
    if (buf_ == nullptr) return;
    buf_->spans[static_cast<std::size_t>(idx_)].end_ns = wall_ns();
    buf_->open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buf_ = nullptr;
  std::int64_t idx_ = -1;
};

/// Write every buffered span as Chrome trace-event JSON; returns span count.
std::size_t write_chrome_trace(const std::string& path);
/// Per-layer self time (span duration minus the part its children cover),
/// in wall ms, plus span counts, keyed by layer.
struct LayerTime {
  double self_ms = 0;
  double total_ms = 0;
  std::uint64_t spans = 0;
};
std::map<std::string, LayerTime> layer_self_times();

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;       ///< "wall", "model" or "-" (counts, ratios)
  std::uint64_t samples = 0;  ///< samples behind a percentile (0 = n/a)
};

struct Check {
  std::string name;
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> config;  ///< printed as-is
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< critical failures + sheds + lost/wrong answers
  void add(std::string name, double v, std::string unit, std::string clock,
           std::uint64_t samples = 0) {
    metrics.push_back({std::move(name), v, std::move(unit), std::move(clock), samples});
  }
  void cfg(std::string k, std::string v) { config.emplace_back(std::move(k), std::move(v)); }
  void check(std::string name, std::uint64_t checked, std::uint64_t failed_n) {
    checks.push_back({std::move(name), checked, failed_n});
  }
};

/// What the command line and the frozen workload file hand a workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_wrong = false;  ///< corrupt one answer: the checks must catch it
  double rate_kqps = 0;       ///< fixed offered rate of the open-loop phase
  std::string out_dir = ".bench_out";
};

RunResult run_wire(const Options& o);
RunResult run_txn(const Options& o);
RunResult run_olap(const Options& o);

// ---------------------------------------------------------------------------
// Database set-up shared by the workloads.
// ---------------------------------------------------------------------------

/// The configuration the server runs: shared cache with 2Q admission and
/// write-through, commit pipeline on.
gdi::DatabaseConfig server_config(const gdi::gen::LpgConfig& g, int nranks,
                                  std::size_t block_size = 512);

/// The value a vertex holds right after bulk load. The key sits in the high
/// half, so every value the workloads write for key k keeps `k << 32` there
/// and a read of key k is checkable without knowing the write history.
constexpr std::int64_t initial_value(std::uint64_t k) {
  return static_cast<std::int64_t>(k << 32);
}
constexpr bool value_belongs_to(std::int64_t v, std::uint64_t k) {
  return (static_cast<std::uint64_t>(v) >> 32) == k;
}

struct LoadedGraph {
  std::shared_ptr<gdi::Database> db;
  std::uint32_t pt = 0;  ///< the int64 "val" property every vertex carries
  double gen_s = 0;      ///< generation wall time (rank 0)
  double load_s = 0;     ///< BulkLoader::load wall time (rank 0)
  bool ok = false;       ///< the load succeeded on every rank
  /// Edges dropped because a supernode's holder hit its block-table limit
  /// (summed over ranks; depends on the block size).
  std::uint64_t edges_skipped = 0;
};

/// Collective: create the database, generate this rank's Kronecker slice,
/// give every vertex its initial "val" and bulk load it.
LoadedGraph load_graph(gdi::rma::Rank& self, const gdi::gen::LpgConfig& g,
                       const gdi::DatabaseConfig& cfg);

/// Read the int64 property `pt` of vertex `k` in its own read transaction.
bool read_int_prop(const std::shared_ptr<gdi::Database>& db, gdi::rma::Rank& self,
                   std::uint32_t pt, std::uint64_t k, std::int64_t* v);

/// Host-speed probe: wall seconds that `threads` threads, started together,
/// take for a fixed amount of integer and memory work (median of 3). The
/// serving and analytics workloads use every core, so co-tenants and clock
/// changes slow them; the probe sees the same slowdown in the same run.
double host_probe_s(int threads);

/// Probe time of an unloaded host, for the normalization below.
inline constexpr double kNominalProbeS = 0.019;

/// Wall metrics reported at nominal host speed: throughputs are scaled by
/// `slow`, times divided by it, where slow = median probe / kNominalProbeS
/// (> 1 on a host slower than nominal). On a shared host the raw values
/// drifted by up to 50% within minutes while the normalized ones held; the
/// raw values are printed and kept in the result's config.
struct HostSpeed {
  Samples probes;
  [[nodiscard]] double slow() { return probes.size() ? probes.median() / kNominalProbeS : 1.0; }
  /// Report setup_s and wall_kqps normalized, keeping the raw values.
  void report(RunResult& r, Samples& setup_s, Samples& wall_kqps) {
    const double f = slow();
    r.add("setup_s", setup_s.median() / f, "s", "wall", setup_s.size());
    r.add("wall_kqps", wall_kqps.median() * f, "kreq/s", "wall", wall_kqps.size());
    r.cfg("host_probe_ms", std::to_string(probes.median() * 1e3) + " median of " +
                               std::to_string(probes.size()) + ", nominal " +
                               std::to_string(kNominalProbeS * 1e3));
    r.cfg("raw.setup_s", std::to_string(setup_s.median()));
    r.cfg("raw.wall_kqps", std::to_string(wall_kqps.median()));
    std::printf("host probe %.2f ms (nominal %.2f): raw setup_s %.5f, raw wall_kqps %.2f\n",
                probes.median() * 1e3, kNominalProbeS * 1e3, setup_s.median(),
                wall_kqps.median());
  }
};

/// Collective: sum of every rank's counter delta since `since`.
gdi::rma::OpCounters global_delta(gdi::rma::Rank& self, const gdi::rma::OpCounters& since);

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Deterministic generator for benchmark inputs (splitmix64 stream).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

}  // namespace perfbench
