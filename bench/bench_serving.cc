// Serving front-door benchmark: an open-loop mixed workload (70% point
// reads, 15% writes, 10% MultiGet(8), 5% 2-hop traversals) driven through
// the QueryFrontend while the cluster is healthy, degraded (one machine of
// eight killed mid-run, promotions held back so the window stays open), and
// recovered (after the DetectAndRecover sweep).
//
// Open-loop means arrivals are pre-scheduled: latency is measured from the
// request's scheduled arrival, not from when a worker got around to it, so
// queueing delay during the degraded phase shows up in the percentiles
// instead of being silently absorbed by a closed loop slowing down.
//
// Reported per phase: throughput, p50/p95/p99 latency, terminal-status
// counts (OK / NotFound / DeadlineExceeded / shed / Unavailable), and the
// degraded reads served by replicas. A final ablation section replays a
// dead-path workload with the cluster-wide retry budget on and off and
// reports the sync-call amplification the budget prevents.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "net/fault_injector.h"
#include "serving/query_frontend.h"
#include "tfs/tfs.h"

namespace trinity {
namespace {

using serving::QueryFrontend;
using serving::ServingStats;

constexpr int kSlaves = 8;
constexpr CellId kKvCells = 4096;        ///< Point/batch keyspace.
constexpr CellId kGraphBase = 1 << 20;   ///< Graph node ids live far above.
constexpr CellId kGraphNodes = 1024;
constexpr int kRequestsPerPhase = 4000;
constexpr int kWorkers = 8;
constexpr std::uint64_t kInterArrivalMicros = 20;  ///< ~50k req/s offered.

struct PhaseResult {
  Histogram latency_micros;
  std::uint64_t ok = 0;
  std::uint64_t not_found = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t shed = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t other = 0;
  double wall_seconds = 0.0;
};

QueryFrontend::Request MakeRequest(int i) {
  const std::uint64_t h = Mix64(static_cast<std::uint64_t>(i) + 1);
  QueryFrontend::Request request;
  const int pick = static_cast<int>(h % 100);
  if (pick < 70) {
    request.type = QueryFrontend::RequestType::kGet;
    request.id = (h >> 8) % kKvCells;
  } else if (pick < 85) {
    request.type = QueryFrontend::RequestType::kPut;
    request.id = (h >> 8) % kKvCells;
    request.payload = std::string(64, static_cast<char>('a' + (h >> 16) % 26));
  } else if (pick < 95) {
    request.type = QueryFrontend::RequestType::kMultiGet;
    request.ids.reserve(8);
    for (int j = 0; j < 8; ++j) {
      request.ids.push_back(Mix64(h + static_cast<std::uint64_t>(j)) %
                            kKvCells);
    }
  } else {
    request.type = QueryFrontend::RequestType::kKHop;
    request.id = kGraphBase + (h >> 8) % kGraphNodes;
    request.hops = 2;
  }
  return request;
}

PhaseResult RunPhase(QueryFrontend* frontend) {
  PhaseResult result;
  std::mutex mu;
  std::atomic<int> next{0};
  Stopwatch phase_watch;
  const auto phase_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= kRequestsPerPhase) return;
        const auto scheduled =
            phase_start + std::chrono::microseconds(
                              static_cast<std::uint64_t>(i) *
                              kInterArrivalMicros);
        std::this_thread::sleep_until(scheduled);
        const QueryFrontend::Request request = MakeRequest(i);
        QueryFrontend::Response response;
        const Status s = frontend->Execute(request, &response);
        const double latency =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - scheduled)
                .count();
        std::lock_guard<std::mutex> lock(mu);
        result.latency_micros.Add(latency);
        if (s.ok()) {
          ++result.ok;
        } else if (s.IsNotFound()) {
          ++result.not_found;
        } else if (s.IsDeadlineExceeded()) {
          ++result.deadline_exceeded;
        } else if (s.IsResourceExhausted()) {
          ++result.shed;
        } else if (s.IsRetryable()) {
          ++result.unavailable;
        } else {
          ++result.other;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  result.wall_seconds = phase_watch.ElapsedSeconds();
  return result;
}

void EmitPhase(bench::JsonEmitter* json, const char* phase,
               const PhaseResult& r, const ServingStats& before,
               const ServingStats& after) {
  const double throughput =
      r.wall_seconds > 0.0 ? kRequestsPerPhase / r.wall_seconds : 0.0;
  std::printf("%10s %10.0f %9.0f %9.0f %9.0f %7llu %7llu %7llu %7llu %7llu\n",
              phase, throughput, r.latency_micros.Percentile(50.0),
              r.latency_micros.Percentile(95.0),
              r.latency_micros.Percentile(99.0),
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.not_found),
              static_cast<unsigned long long>(r.deadline_exceeded),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.unavailable));
  json->BeginRow("serving");
  json->Add("phase", std::string(phase));
  json->Add("requests", static_cast<std::uint64_t>(kRequestsPerPhase));
  json->Add("wall_seconds", r.wall_seconds);
  json->Add("throughput_rps", throughput);
  json->Add("latency_p50_micros", r.latency_micros.Percentile(50.0));
  json->Add("latency_p95_micros", r.latency_micros.Percentile(95.0));
  json->Add("latency_p99_micros", r.latency_micros.Percentile(99.0));
  json->Add("latency_mean_micros", r.latency_micros.Mean());
  json->Add("latency_max_micros", r.latency_micros.Max());
  json->Add("ok", r.ok);
  json->Add("not_found", r.not_found);
  json->Add("deadline_exceeded", r.deadline_exceeded);
  json->Add("shed", r.shed);
  json->Add("unavailable", r.unavailable);
  json->Add("other", r.other);
  json->Add("degraded_reads", after.degraded_reads - before.degraded_reads);
  json->Add("retries_granted", after.retries_granted - before.retries_granted);
  json->Add("retries_denied", after.retries_denied - before.retries_denied);
}

void RunServing(bench::JsonEmitter* json) {
  bench::PrintHeader("Serving",
                     "open-loop mixed workload, 1-of-8 machine killed "
                     "mid-run (k=1 hot standby, promotions held)");

  tfs::Tfs::Options tfs_options;
  tfs_options.root = "/tmp/trinity_bench_serving";
  std::filesystem::remove_all(tfs_options.root);
  std::unique_ptr<tfs::Tfs> tfs;
  TRINITY_CHECK(tfs::Tfs::Open(tfs_options, &tfs).ok(), "tfs open");

  cloud::MemoryCloud::Options options;
  options.num_slaves = kSlaves;
  options.p_bits = 6;
  options.tfs = tfs.get();
  options.replication_factor = 1;
  // Hold promotions until the recovery sweep so the degraded phase stays
  // degraded: reads fail over to replicas, writes to the victim's trunks
  // resolve terminally instead of riding a promotion race.
  options.auto_promote = false;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  TRINITY_CHECK(cloud::MemoryCloud::Create(options, &cloud).ok(),
                "cloud create");

  const std::string payload(64, 's');
  for (CellId id = 0; id < kKvCells; ++id) {
    TRINITY_CHECK(cloud->PutCell(id, Slice(payload)).ok(), "seed kv");
  }
  graph::Graph graph(cloud.get());
  for (CellId v = 0; v < kGraphNodes; ++v) {
    TRINITY_CHECK(graph.AddNode(kGraphBase + v, Slice("node")).ok(),
                  "seed node");
  }
  for (CellId v = 0; v < kGraphNodes; ++v) {
    TRINITY_CHECK(
        graph.AddEdge(kGraphBase + v, kGraphBase + (v + 1) % kGraphNodes).ok(),
        "seed edge");
    TRINITY_CHECK(
        graph.AddEdge(kGraphBase + v, kGraphBase + (v + 7) % kGraphNodes).ok(),
        "seed edge");
  }

  QueryFrontend::Options frontend_options;
  frontend_options.default_deadline_micros = 200000.0;
  QueryFrontend frontend(cloud.get(), &graph, frontend_options);

  std::printf("%10s %10s %9s %9s %9s %7s %7s %7s %7s %7s\n", "phase", "rps",
              "p50_us", "p95_us", "p99_us", "ok", "notfnd", "ddl", "shed",
              "unavail");

  ServingStats before = frontend.stats();
  PhaseResult healthy = RunPhase(&frontend);
  ServingStats after = frontend.stats();
  EmitPhase(json, "healthy", healthy, before, after);

  const MachineId victim = 3;
  TRINITY_CHECK(cloud->FailMachine(victim).ok(), "fail machine");
  before = after;
  PhaseResult degraded = RunPhase(&frontend);
  after = frontend.stats();
  EmitPhase(json, "degraded", degraded, before, after);

  cloud->DetectAndRecover();
  TRINITY_CHECK(cloud->Audit().ok(), "post-recovery audit");
  before = after;
  PhaseResult recovered = RunPhase(&frontend);
  after = frontend.stats();
  EmitPhase(json, "recovered", recovered, before, after);

  std::printf(
      "(degraded reads fail over to replicas; writes to the dead owner "
      "resolve terminally under the deadline instead of hanging)\n");
  std::filesystem::remove_all(tfs_options.root);
  bench::PrintFooter();
}

// Retry-storm ablation: every op call against the cluster fails on the wire
// (injected), so each request would retry to max_attempts. The cluster-wide
// token bucket caps the total number of retries instead, bounding the
// amplification a dead dependency can inflict on the fabric.
void RunRetryAblation(bench::JsonEmitter* json) {
  bench::PrintHeader("Retry budget ablation",
                     "dead op path, sync-call amplification with the "
                     "cluster-wide budget on vs off");
  std::printf("%8s %10s %12s %14s\n", "budget", "requests", "sync_calls",
              "amplification");
  constexpr int kRequests = 200;
  for (const bool enable_budget : {true, false}) {
    auto injector = std::make_unique<net::FaultInjector>(/*seed=*/11);
    net::FaultInjector::Policy dead;
    dead.call_fail_prob = 1.0;
    injector->SetHandlerRangePolicy(cloud::kCellOpHandler,
                                    cloud::kCellOpHandler, dead);
    cloud::MemoryCloud::Options options;
    options.num_slaves = 4;
    options.p_bits = 4;
    std::unique_ptr<cloud::MemoryCloud> cloud;
    TRINITY_CHECK(cloud::MemoryCloud::Create(options, &cloud).ok(),
                  "cloud create");
    cloud->fabric().SetFaultInjector(injector.get());

    QueryFrontend::Options frontend_options;
    frontend_options.enable_retry_budget = enable_budget;
    frontend_options.retry_budget.initial = 32.0;
    frontend_options.retry_budget.capacity = 32.0;
    frontend_options.retry_budget.refill_per_op = 0.0;
    frontend_options.default_deadline_micros = 0.0;  // Budget effect only.
    QueryFrontend frontend(cloud.get(), nullptr, frontend_options);

    const std::uint64_t calls_before = cloud->fabric().stats().sync_calls;
    for (int i = 0; i < kRequests; ++i) {
      QueryFrontend::Request request;
      request.type = QueryFrontend::RequestType::kGet;
      request.id = static_cast<CellId>(i);
      QueryFrontend::Response response;
      frontend.Execute(request, &response);
    }
    const std::uint64_t sync_calls =
        cloud->fabric().stats().sync_calls - calls_before;
    const double amplification =
        static_cast<double>(sync_calls) / kRequests;
    std::printf("%8s %10d %12llu %14.2f\n", enable_budget ? "on" : "off",
                kRequests, static_cast<unsigned long long>(sync_calls),
                amplification);
    json->BeginRow("retry_ablation");
    json->Add("budget_enabled", enable_budget);
    json->Add("requests", static_cast<std::uint64_t>(kRequests));
    json->Add("sync_calls", sync_calls);
    json->Add("amplification", amplification);
    const ServingStats stats = frontend.stats();
    json->Add("shed", stats.shed);
    json->Add("unavailable", stats.unavailable);
    json->Add("retries_granted", stats.retries_granted);
    json->Add("retries_denied", stats.retries_denied);
  }
  std::printf(
      "(without the budget every request retries to max_attempts; the "
      "token bucket bounds cluster-wide retries)\n");
  bench::PrintFooter();
}

}  // namespace
}  // namespace trinity

int main(int argc, char** argv) {
  trinity::bench::JsonEmitter json("serving", argc, argv);
  trinity::RunServing(&json);
  trinity::RunRetryAblation(&json);
  return 0;
}
