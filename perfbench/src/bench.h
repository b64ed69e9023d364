// Shared pieces of the benchmark driver: a flat JSON reply writer, a Zipf
// key sampler, the in-memory span log, quantile ladders and the Workload
// interface every workload implements. Only public engine headers are used.

#ifndef TRINITY_PERFBENCH_BENCH_H_
#define TRINITY_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"

namespace trinity::perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds one JSON object as text. Keys are emitted in call order; nested
/// objects/arrays are opened and closed explicitly. Non-finite numbers are
/// written as null (a failed request's latency is +inf).
class Json {
 public:
  Json& Begin(const char* key = nullptr) { return Open(key, '{'); }
  Json& End() { return Close('}'); }
  Json& BeginArray(const char* key) { return Open(key, '['); }
  Json& EndArray() { return Close(']'); }
  Json& Num(const char* key, double v) {
    Key(key);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      text_ += buf;
    } else {
      text_ += "null";
    }
    return *this;
  }
  Json& Int(const char* key, std::uint64_t v) {
    Key(key);
    text_ += std::to_string(v);
    return *this;
  }
  Json& Bool(const char* key, bool v) {
    Key(key);
    text_ += v ? "true" : "false";
    return *this;
  }
  /// Embeds an already-complete JSON value.
  Json& Raw(const char* key, const std::string& json) {
    Key(key);
    text_ += json;
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    text_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') text_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      text_ += c;
    }
    text_ += '"';
    return *this;
  }
  const std::string& text() const { return text_; }

 private:
  Json& Open(const char* key, char bracket) {
    Key(key);
    text_ += bracket;
    first_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    text_ += bracket;
    first_ = false;
    return *this;
  }
  void Key(const char* key) {
    if (!first_) text_ += ',';
    first_ = false;
    if (key != nullptr) {
      text_ += '"';
      text_ += key;
      text_ += "\":";
    }
  }
  std::string text_;
  bool first_ = true;
};

/// Percentiles reported for every latency sample set. The harness picks the
/// highest one that still has at least ten samples beyond it.
inline constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};
inline constexpr const char* kLadderKeys[] = {"p50", "p90", "p99", "p99_9",
                                              "p99_99"};

/// Nearest-rank percentile of an ascending-sorted sample set.
inline double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Writes {"n":..,"p50":..,...,"max":..} for `samples` (sorted in place).
inline void EmitLadder(Json& j, const char* key, std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  j.Begin(key).Int("n", samples.size());
  for (std::size_t k = 0; k < std::size(kLadder); ++k) {
    j.Num(kLadderKeys[k], SortedPercentile(samples, kLadder[k]));
  }
  j.Num("max", samples.empty() ? 0.0 : samples.back());
  j.End();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Zipf(theta) ranks over [0, n) by the Gray et al. closed-form sampler
/// (the YCSB generator): O(n) set-up, O(1) per sample, rank 0 hottest.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }
  /// `u` uniform in [0, 1).
  std::uint64_t Rank(double u) const {
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= n_ ? n_ - 1 : r;
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

/// Deterministic per-request randomness: request `i` of a run seeded `seed`
/// always draws the same numbers, whichever thread issues it.
class RequestRng {
 public:
  RequestRng(std::uint64_t seed, std::uint64_t i)
      : state_(Mix64(seed * 0x9e3779b97f4a7c15ULL + i + 1)) {}
  std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(state_);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Uniform(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// One span: a timed call into one layer. Spans of one request share `req`;
/// `depth` is the layer's position below the entry point (0 = top).
struct Span {
  std::uint64_t req = 0;
  std::uint8_t layer = 0;
  std::uint8_t depth = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Hardware threads, at most four: the most threads the benchmark runs at
/// once.
inline int WorkerThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

/// In-memory span store, appended under a mutex only by traced code paths
/// and written out once at the end of the run.
class SpanLog {
 public:
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  /// Interns a layer name; returns its id.
  std::uint8_t Layer(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (layers_[i] == name) return static_cast<std::uint8_t>(i);
    }
    layers_.push_back(name);
    return static_cast<std::uint8_t>(layers_.size() - 1);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  /// Writes one "req layer depth start_ns end_ns" line per span.
  bool WriteTo(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# req layer depth start_ns end_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu %s %u %lld %lld\n",
                   static_cast<unsigned long long>(s.req),
                   layers_[s.layer].c_str(), s.depth,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> layers_;
};

/// Result of one open-loop request as seen by the client.
struct Outcome {
  bool ok = false;         ///< Terminal OK status and the output check held.
  bool check_failed = false;  ///< The response bytes were wrong.
  std::uint8_t type = 0;   ///< Index into Workload::type_names().
};

/// A benchmark workload: owns its cloud and data, issues open-loop requests,
/// and runs its batch steps and output checks. Issue() is called from up to
/// nproc generator threads at once; every other method is single-threaded.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Drops any previous instance and builds the cloud and data set from
  /// the inputs generated at construction. Timed by the caller.
  virtual bool Setup() = 0;
  /// Request-type names, indexed by Outcome::type. A workload without an
  /// open-loop load keeps the defaults, which fail every request.
  virtual std::vector<std::string> type_names() const { return {}; }
  /// Executes open-loop request `i`; `spans` is non-null in traced phases.
  virtual Outcome Issue(std::uint64_t, SpanLog*) { return {}; }
  /// The workload's batch pass (pass_s, pass_modeled_s).
  virtual void Pass(Json& out) = 0;
  /// Consistent snapshot of the data set plus its aggregate (snapshot_s).
  virtual void Snapshot(Json& out) = 0;
  /// Single-client latency over slice `slice` of `slices` of the online
  /// query sample (slices let a run spread the sample over time).
  virtual void Probe(Json& out, int slice, int slices,
                     std::uint64_t queries) = 0;
  /// End-of-run output checks.
  virtual void Check(Json& out) = 0;
  /// Cumulative per-layer counters read through the public stats()
  /// accessors.
  virtual void Counters(Json& out) = 0;
  /// Re-issues a seeded sample one layer down at a time (traced runs).
  virtual void Replay(int samples, SpanLog* spans, Json& out) = 0;
};

std::unique_ptr<Workload> MakeKvServing(std::uint64_t seed);
std::unique_ptr<Workload> MakeAnalytics(std::uint64_t seed,
                                        const std::string& scratch_dir);

}  // namespace trinity::perfbench

#endif  // TRINITY_PERFBENCH_BENCH_H_
