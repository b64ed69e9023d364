// Benchmark driver. `trinity_perfbench <workload> <seed> <scratch_dir>`
// generates the workload's inputs from the seed, then reads one command per
// line on stdin and answers each with exactly one JSON line on stdout (all
// diagnostics go to stderr). run.py sequences the commands, does the
// arithmetic on the replies and prints the metrics:
//
//   setup                               build cloud + data, reply setup_s
//   phase <rate> <secs> <windows> <tr> <pool>
//                                       open-loop phase at <rate> req/s;
//                                       its samples join pool <pool> ("-":
//                                       none)
//   pooled <pool>                       ladders over every phase of a pool
//   pass | snapshot | check             batch steps and output checks
//   probe <slice> <slices> <queries>    part of the single-client probe
//   counters                            per-layer counters (stats())
//   replay <samples>                    layered replay with spans
//   spans <path>                        write the span log
//   rss                                 peak resident set size
//   quit

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace trinity::perfbench {
namespace {

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Busy-waits the last stretch before `due_ns`; sleeps before that. Sleep
/// wake-ups run tens of microseconds late, spinning does not.
void WaitUntil(std::int64_t due_ns) {
  constexpr std::int64_t kSpinNs = 2'000'000;
  std::int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

/// Generator threads of an open-loop phase. Each one spins while it waits
/// for a due time, and on a shared 4-vCPU host a spinning thread loses more
/// time to the hypervisor the more of them spin: with one, two and three
/// spinners each lost about 3%, 8% and 25% of its time in stalls of up to
/// tens of milliseconds. Two keep requests concurrent in the frontend
/// (whose Get throughput does not scale with clients) at a small loss.
constexpr int kGeneratorThreads = 2;

/// Latency and lateness samples of several phases, so a metric's tail is
/// taken over every request behind it rather than per phase.
struct Pool {
  std::vector<double> lat_us;
  std::vector<double> late_us;
  std::vector<double> svc_us;
};

/// One open-loop phase: request k of the phase is due at t0 + k / rate and
/// is timed from that due time, so a stall delays and counts against every
/// request queued behind it. Idle generator threads take the next request
/// in order and wait for its due time; a request that falls due while every
/// thread is busy waits in the backlog. Requests still untaken a quarter of
/// the phase (at least 0.2 s) after its scheduled end are not sent and
/// count as failed. Each request's service time, from the moment a thread
/// starts it to its answer, is kept beside its latency: it leaves out the
/// wait in the backlog, so a host stall counts against the few requests it
/// interrupts rather than every request queued behind it. A traced phase
/// records spans for every 16th request.
class Phase {
 public:
  Phase(Workload* w, std::uint64_t first_request, double rate, double seconds,
        int windows, SpanLog* spans, Pool* pool)
      : w_(w),
        first_(first_request),
        rate_(rate),
        total_(static_cast<std::uint64_t>(
            std::max(1.0, std::round(rate * seconds)))),
        windows_(std::max(1, windows)),
        spans_(spans),
        pool_(pool),
        lat_us_(total_),
        late_us_(total_),
        svc_us_(total_),
        lag_us_(total_),
        type_(total_),
        flags_(total_) {}

  std::uint64_t total() const { return total_; }

  void Run(Json& out) {
    const int threads = std::min(kGeneratorThreads, WorkerThreads());
    const double period_ns = 1e9 / rate_;
    const std::int64_t t0 = NowNs() + 2'000'000;
    const double scheduled_ns = static_cast<double>(total_) * period_ns;
    const std::int64_t cutoff =
        t0 + static_cast<std::int64_t>(scheduled_ns +
                                       std::max(2e8, 0.25 * scheduled_ns));
    std::atomic<std::uint64_t> next{0};
    std::vector<std::thread> workers;
    std::vector<std::int64_t> last_end(static_cast<std::size_t>(threads), t0);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::uint8_t client_layer =
            spans_ != nullptr ? spans_->Layer("client") : 0;
        for (;;) {
          const std::uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= total_) break;
          const std::int64_t due =
              t0 + static_cast<std::int64_t>(static_cast<double>(k) *
                                             period_ns);
          const std::int64_t taken = NowNs();
          if (taken > cutoff) {
            flags_[k] = kUnsent;
            lat_us_[k] = INFINITY;
            continue;
          }
          WaitUntil(due);
          SpanLog* const spans = k % kTraceEvery == 0 ? spans_ : nullptr;
          const std::int64_t start = NowNs();
          const Outcome o = w_->Issue(first_ + k, spans);
          const std::int64_t end = NowNs();
          lat_us_[k] = o.ok ? static_cast<float>((end - due) / 1e3) : INFINITY;
          svc_us_[k] =
              o.ok ? static_cast<float>((end - start) / 1e3) : INFINITY;
          late_us_[k] =
              static_cast<float>((start - std::max(due, taken)) / 1e3);
          lag_us_[k] = static_cast<float>((start - due) / 1e3);
          type_[k] = o.type;
          flags_[k] = static_cast<std::uint8_t>(
              kSent | (o.ok ? 0 : kFailed) | (o.check_failed ? kBadCheck : 0));
          last_end[static_cast<std::size_t>(t)] = end;
          if (spans != nullptr) {
            spans->Add({first_ + k, client_layer, 0, due, end});
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    std::int64_t finish = t0;
    for (std::int64_t e : last_end) finish = std::max(finish, e);
    Emit(out, static_cast<double>(finish - t0) / 1e9, threads);
  }

 private:
  enum : std::uint8_t { kSent = 1, kFailed = 2, kBadCheck = 4, kUnsent = 8 };
  static constexpr std::uint64_t kTraceEvery = 16;

  void Emit(Json& out, double elapsed_s, int threads) {
    std::uint64_t sent = 0, failed = 0, bad = 0, unsent = 0;
    std::vector<double> all, late, svc;
    all.reserve(total_);
    late.reserve(total_);
    svc.reserve(total_);
    const std::vector<std::string> names = w_->type_names();
    std::vector<std::vector<double>> by_type(names.size());
    std::vector<std::uint64_t> failed_by_type(names.size(), 0);
    for (std::uint64_t k = 0; k < total_; ++k) {
      all.push_back(lat_us_[k]);
      if (flags_[k] & kUnsent) {
        ++unsent;
        ++failed;
        continue;
      }
      ++sent;
      if (flags_[k] & kBadCheck) ++bad;
      late.push_back(late_us_[k]);
      svc.push_back(svc_us_[k]);
      if (type_[k] >= by_type.size()) continue;
      by_type[type_[k]].push_back(lat_us_[k]);
      if (flags_[k] & kFailed) {
        ++failed;
        ++failed_by_type[type_[k]];
      }
    }
    out.Num("rate", rate_)
        .Int("attempted", total_)
        .Int("sent", sent)
        .Int("failed", failed)
        .Int("check_failed", bad)
        .Int("unsent", unsent)
        .Int("threads", static_cast<std::uint64_t>(threads))
        .Num("elapsed_s", elapsed_s);
    // Windows only carry the start lag the backlog test compares; latency
    // percentiles are taken over the whole phase (or its pool).
    out.BeginArray("windows");
    for (int w = 0; w < windows_; ++w) {
      const std::uint64_t lo = total_ * static_cast<std::uint64_t>(w) /
                               static_cast<std::uint64_t>(windows_);
      const std::uint64_t hi = total_ * static_cast<std::uint64_t>(w + 1) /
                               static_cast<std::uint64_t>(windows_);
      std::vector<double> lag;
      std::uint64_t wfailed = 0;
      for (std::uint64_t k = lo; k < hi; ++k) {
        if (flags_[k] & (kFailed | kUnsent)) ++wfailed;
        lag.push_back(flags_[k] & kUnsent ? INFINITY : lag_us_[k]);
      }
      out.Begin().Int("failed", wfailed).Num("lag_p50", Median(lag)).End();
    }
    out.EndArray();
    if (pool_ != nullptr) {
      pool_->lat_us.insert(pool_->lat_us.end(), all.begin(), all.end());
      pool_->late_us.insert(pool_->late_us.end(), late.begin(), late.end());
      pool_->svc_us.insert(pool_->svc_us.end(), svc.begin(), svc.end());
    }
    EmitLadder(out, "lat", all);
    EmitLadder(out, "late", late);
    EmitLadder(out, "svc", svc);
    out.Begin("types");
    for (std::size_t t = 0; t < names.size(); ++t) {
      EmitLadder(out, names[t].c_str(), by_type[t]);
    }
    out.End().Begin("failed_by_type");
    for (std::size_t t = 0; t < names.size(); ++t) {
      out.Int(names[t].c_str(), failed_by_type[t]);
    }
    out.End();
  }

  Workload* const w_;
  const std::uint64_t first_;
  const double rate_;
  const std::uint64_t total_;
  const int windows_;
  SpanLog* const spans_;
  Pool* const pool_;
  // Indexed by request; each slot is written by the one thread that took it.
  std::vector<float> lat_us_;
  std::vector<float> late_us_;
  std::vector<float> svc_us_;
  std::vector<float> lag_us_;
  std::vector<std::uint8_t> type_;
  std::vector<std::uint8_t> flags_;
};

std::unique_ptr<Workload> Make(const std::string& name, std::uint64_t seed,
                               const std::string& scratch) {
  if (name == "kv_serving") return MakeKvServing(seed);
  if (name == "analytics_resident") return MakeAnalytics(seed, scratch);
  return nullptr;
}

int Main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s <workload> <seed> <scratch_dir>\n",
                 argv[0]);
    return 2;
  }
  const std::string scratch = argv[3];
  std::filesystem::create_directories(scratch);
  std::unique_ptr<Workload> w =
      Make(argv[1], std::strtoull(argv[2], nullptr, 10), scratch);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", argv[1]);
    return 2;
  }
  SpanLog spans;
  std::map<std::string, Pool> pools;
  std::uint64_t next_request = 0;
  bool ready = false;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit") break;
    Json out;
    out.Begin().Str("cmd", cmd);
    if (cmd == "setup") {
      const std::int64_t start = NowNs();
      ready = w->Setup();
      out.Bool("ok", ready).Num("setup_s", (NowNs() - start) / 1e9);
    } else if (cmd == "rss") {
      out.Num("peak_rss_mb", PeakRssMb());
    } else if (cmd == "spans") {
      std::string path;
      in >> path;
      out.Bool("ok", spans.WriteTo(path)).Int("spans", spans.size());
    } else if (!ready) {
      out.Bool("ok", false).Str("error", "setup has not succeeded");
    } else if (cmd == "phase") {
      double rate = 0, seconds = 0;
      int windows = 1, traced = 0;
      std::string pool = "-";
      in >> rate >> seconds >> windows >> traced >> pool;
      Phase phase(w.get(), next_request, rate, seconds, windows,
                  traced != 0 ? &spans : nullptr,
                  pool == "-" ? nullptr : &pools[pool]);
      next_request += phase.total();
      out.Bool("ok", rate > 0 && seconds > 0);
      if (rate > 0 && seconds > 0) phase.Run(out);
    } else if (cmd == "pooled") {
      std::string key;
      in >> key;
      Pool& pool = pools[key];
      out.Bool("ok", !pool.lat_us.empty());
      EmitLadder(out, "lat", pool.lat_us);
      EmitLadder(out, "late", pool.late_us);
      EmitLadder(out, "svc", pool.svc_us);
    } else if (cmd == "pass") {
      w->Pass(out);
    } else if (cmd == "snapshot") {
      w->Snapshot(out);
    } else if (cmd == "probe") {
      int slice = 0, slices = 1;
      std::uint64_t queries = 0;
      in >> slice >> slices >> queries;
      w->Probe(out, std::max(0, slice), std::max(1, slices), queries);
    } else if (cmd == "check") {
      w->Check(out);
    } else if (cmd == "counters") {
      w->Counters(out);
    } else if (cmd == "replay") {
      int samples = 0;
      in >> samples;
      w->Replay(samples, &spans, out);
    } else {
      out.Bool("ok", false).Str("error", "unknown command");
    }
    out.End();
    std::cout << out.text() << std::endl;
  }
  return 0;
}

}  // namespace
}  // namespace trinity::perfbench

int main(int argc, char** argv) { return trinity::perfbench::Main(argc, argv); }
