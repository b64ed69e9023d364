// The packed-message exchange and the handler-id leases under it: canonical
// drain order, per-instance ids (two engines of one kind on one cloud at
// once), and handlers that die with their owner.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "analytics/graph_snapshot.h"
#include "analytics/triangles.h"
#include "compute/async_engine.h"
#include "compute/bsp.h"
#include "compute/exchange.h"
#include "compute/traversal.h"
#include "graph/generators.h"

namespace trinity::compute {
namespace {

struct Fixture {
  std::unique_ptr<cloud::MemoryCloud> cloud;
  std::unique_ptr<graph::Graph> graph;
};

Fixture NewGraph(int slaves, CellId nodes, double degree, std::uint64_t seed) {
  Fixture f;
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 4 << 20;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &f.cloud).ok());
  graph::Graph::Options gopts;
  gopts.track_inlinks = true;
  f.graph = std::make_unique<graph::Graph>(f.cloud.get(), gopts);
  EXPECT_TRUE(
      graph::Generators::LoadRmat(f.graph.get(), nodes, degree, seed).ok());
  return f;
}

TEST(ExchangeTest, FlushDrainsPairsInCanonicalOrder) {
  net::Fabric fabric(3);
  std::vector<std::tuple<MachineId, MachineId, CellId>> arrivals;
  Exchange exchange(fabric, [&](MachineId dst, MachineId src, Slice payload) {
    EXPECT_TRUE(ForEachPackedRecord(payload, [&](CellId target, Slice msg) {
      EXPECT_EQ(msg.ToString(), "m" + std::to_string(target));
      arrivals.emplace_back(src, dst, target);
    }));
  });
  // Added out of order; drained src asc, dst asc, append order in a pair.
  const std::vector<std::tuple<MachineId, MachineId, CellId>> adds = {
      {2, 0, 20}, {0, 1, 1}, {1, 1, 11}, {0, 1, 2}, {0, 0, 0}, {1, 2, 12}};
  for (const auto& [src, dst, target] : adds) {
    const std::string msg = "m" + std::to_string(target);
    exchange.Add(src, dst, target, Slice(msg));
  }
  ASSERT_TRUE(exchange.Flush().ok());
  const std::vector<std::tuple<MachineId, MachineId, CellId>> expected = {
      {0, 0, 0}, {0, 1, 1}, {0, 1, 2}, {1, 1, 11}, {1, 2, 12}, {2, 0, 20}};
  EXPECT_EQ(arrivals, expected);
  // Local pairs skip the fabric; each remote pair is one packed send.
  const net::NetworkStats stats = fabric.stats();
  EXPECT_EQ(stats.messages, 4u);
  EXPECT_EQ(stats.transfers, 3u);
  EXPECT_EQ(stats.local_messages, 0u);
  // Flushed outboxes are empty: a second flush sends nothing.
  arrivals.clear();
  ASSERT_TRUE(exchange.Flush().ok());
  EXPECT_TRUE(arrivals.empty());
  EXPECT_EQ(fabric.stats().messages, 4u);
}

TEST(ExchangeTest, FlushDrainsEveryPairAndReportsTheFirstError) {
  net::Fabric fabric(3);
  std::vector<MachineId> receivers;
  Exchange exchange(fabric, [&](MachineId dst, MachineId, Slice) {
    receivers.push_back(dst);
  });
  exchange.Add(0, 1, 1, Slice("x"));
  exchange.Add(0, 2, 2, Slice("y"));
  exchange.Add(1, 2, 3, Slice("z"));
  fabric.SetMachineDown(1);
  EXPECT_TRUE(exchange.Flush().IsUnavailable());
  // 0→1 hit the dead machine; 0→2 was still delivered. 1→2 has a dead
  // source.
  EXPECT_EQ(receivers, std::vector<MachineId>{2});
  EXPECT_EQ(fabric.stats().dropped, 2u);
}

TEST(HandlerLeaseTest, ReleaseUnregistersEverywhereAndDropsBufferedSends) {
  net::Fabric fabric(2);
  net::HandlerId released = 0;
  {
    net::Fabric::HandlerLease lease(fabric);
    released = lease.id();
    EXPECT_GE(released, net::Fabric::kFirstLeasedHandler);
    net::Fabric::HandlerLease other(fabric);
    EXPECT_NE(other.id(), released);
    for (MachineId m = 0; m < 2; ++m) {
      fabric.RegisterAsyncHandler(m, released, [](MachineId, Slice) {
        ADD_FAILURE() << "handler outlived its lease";
      });
      fabric.RegisterSyncHandler(
          m, released, [](MachineId, Slice, std::string*) {
            ADD_FAILURE() << "handler outlived its lease";
            return Status::OK();
          });
    }
    // Buffered in the 0→1 pack buffer when the lease ends.
    ASSERT_TRUE(fabric.SendAsync(0, 1, released, Slice("stale")).ok());
  }
  std::string response;
  EXPECT_TRUE(
      fabric.Call(0, 1, released, Slice("q"), &response).IsNotFound());
  EXPECT_TRUE(fabric.SendPacked(1, 0, released, Slice("late"), 1).ok());
  // The id is reused; the stale buffered send must not reach its new owner.
  net::Fabric::HandlerLease next(fabric);
  EXPECT_EQ(next.id(), released);
  int delivered = 0;
  fabric.RegisterAsyncHandler(1, next.id(),
                              [&](MachineId, Slice) { ++delivered; });
  fabric.FlushAll();
  EXPECT_EQ(delivered, 0);
  ASSERT_TRUE(fabric.SendAsync(0, 1, next.id(), Slice("fresh")).ok());
  fabric.FlushAll();
  EXPECT_EQ(delivered, 1);
}

// A payload sent to a destroyed engine's id takes the fabric's "no async
// handler" path. Before leases the engine's handler (capturing `this`)
// stayed registered, and this send reached freed memory (ASan flags it).
TEST(HandlerLeaseTest, DestroyedEnginesHandlersAreGone) {
  Fixture f = NewGraph(4, 64, 3.0, 5);
  net::Fabric& fabric = f.cloud->fabric();
  std::string packed;
  AppendPackedRecord(&packed, 1, Slice("12345678"));
  std::vector<net::HandlerId> released;
  {
    BspEngine bsp(f.graph.get(), BspEngine::Options{});
    AsyncEngine async(f.graph.get(), AsyncEngine::Options{});
    released = {bsp.handler_id(), async.handler_id()};
  }
  for (net::HandlerId id : released) {
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(fabric.SendPacked(0, 1, id, Slice(packed), 1).ok());
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "no async handler"),
              std::string::npos);
  }
}

// ------------------------------------------- Two engines of one kind at once

using Values = std::map<CellId, std::string>;
// The traffic counters a run reports about itself: a run beside a twin must
// report exactly what it reports alone.
using Counters = std::vector<std::uint64_t>;

BspEngine::Options PageRankOptions() {
  BspEngine::Options options;
  options.num_threads = 2;
  options.superstep_limit = 8;
  options.combiner = [](std::string* acc, Slice msg) {
    double a = 0, b = 0;
    std::memcpy(&a, acc->data(), 8);
    std::memcpy(&b, msg.data(), 8);
    a += b;
    std::memcpy(acc->data(), &a, 8);
  };
  return options;
}

Values RunPageRank(BspEngine* engine, Counters* counters) {
  BspEngine::RunStats stats;
  EXPECT_TRUE(engine
                  ->Run(
                      [](BspEngine::VertexContext& ctx) {
                        double rank = 1.0;
                        if (ctx.superstep() > 0) {
                          double sum = 0;
                          for (Slice msg : ctx.messages()) {
                            double v = 0;
                            std::memcpy(&v, msg.data(), 8);
                            sum += v;
                          }
                          rank = 0.15 + 0.85 * sum;
                        }
                        ctx.value().assign(
                            reinterpret_cast<const char*>(&rank), 8);
                        if (ctx.out_count() > 0) {
                          const double share =
                              rank / static_cast<double>(ctx.out_count());
                          ctx.SendToAllOut(Slice(
                              reinterpret_cast<const char*>(&share), 8));
                        }
                      },
                      &stats)
                  .ok());
  *counters = {static_cast<std::uint64_t>(stats.supersteps), stats.messages,
               stats.transfers, stats.bytes};
  Values values;
  engine->ForEachValue(
      [&](CellId v, const std::string& value) { values[v] = value; });
  return values;
}

std::vector<std::set<CellId>> RunKHops(TraversalEngine* engine,
                                       Counters* counters) {
  counters->clear();
  std::vector<std::set<CellId>> reached;
  for (CellId start = 0; start < 24; ++start) {
    std::set<CellId> seen;
    TraversalEngine::QueryStats stats;
    EXPECT_TRUE(engine
                    ->KHopExplore(
                        start, 3,
                        [&seen](CellId v, int, Slice) {
                          seen.insert(v);
                          return true;
                        },
                        &stats)
                    .ok());
    counters->insert(counters->end(),
                     {static_cast<std::uint64_t>(stats.rounds), stats.messages,
                      stats.transfers, stats.visited});
    reached.push_back(std::move(seen));
  }
  return reached;
}

struct SnapshotResult {
  std::vector<std::vector<CellId>> ids;
  std::vector<std::vector<std::uint32_t>> adjacency;
  std::uint64_t triangles = 0;

  bool operator==(const SnapshotResult& o) const {
    return ids == o.ids && adjacency == o.adjacency &&
           triangles == o.triangles;
  }
};

SnapshotResult BuildAndCount(graph::Graph* graph, Counters* counters) {
  SnapshotResult out;
  std::vector<analytics::GraphSnapshot> views;
  analytics::SnapshotBuilder::BuildStats build;
  EXPECT_TRUE(analytics::SnapshotBuilder::Build(graph, &views, &build).ok());
  *counters = {build.exchange_messages, build.exchange_bytes};
  for (const analytics::GraphSnapshot& view : views) {
    EXPECT_TRUE(view.Validate().ok());
    out.ids.push_back(view.id_by_rank);
    out.adjacency.push_back(view.adjacency);
  }
  analytics::TriangleOptions options;
  options.num_threads = 2;
  analytics::TriangleCounter counter(graph, options);
  analytics::TriangleStats stats;
  EXPECT_TRUE(counter.Count(views, &stats).ok());
  out.triangles = stats.triangles;
  return out;
}

// Every engine leases its own handler id, so two of a kind run on one
// cloud at the same time and each sees only its own deliveries. With one
// fixed id per engine kind, the second registration took over the first
// engine's deliveries. Every run also prices its own meter, so its traffic
// counters match its solo run's; with one global meter reset by each run,
// the twins' counters raced.
TEST(ExchangeTest, TwoEnginesOfOneKindRunConcurrentlyOnOneCloud) {
  Fixture f = NewGraph(4, 1024, 6.0, 21);
  graph::Graph* graph = f.graph.get();

  Counters solo_bsp_counters, solo_khop_counters, solo_build_counters;
  BspEngine solo_bsp(graph, PageRankOptions());
  const Values solo_ranks = RunPageRank(&solo_bsp, &solo_bsp_counters);
  TraversalEngine solo_traversal(graph);
  const auto solo_reached = RunKHops(&solo_traversal, &solo_khop_counters);
  const SnapshotResult solo_snapshot =
      BuildAndCount(graph, &solo_build_counters);
  ASSERT_FALSE(solo_ranks.empty());
  ASSERT_GT(solo_snapshot.triangles, 0u);

  for (int trial = 0; trial < 3; ++trial) {
    // Both engines of each kind exist before either runs.
    BspEngine bsp_a(graph, PageRankOptions());
    BspEngine bsp_b(graph, PageRankOptions());
    TraversalEngine traversal_a(graph);
    TraversalEngine traversal_b(graph);
    Values ranks[2];
    std::vector<std::set<CellId>> reached[2];
    SnapshotResult snapshot[2];
    Counters bsp_counters[2], khop_counters[2], build_counters[2];
    auto work = [&](int i, BspEngine* bsp, TraversalEngine* traversal) {
      ranks[i] = RunPageRank(bsp, &bsp_counters[i]);
      reached[i] = RunKHops(traversal, &khop_counters[i]);
      snapshot[i] = BuildAndCount(graph, &build_counters[i]);
    };
    std::thread a(work, 0, &bsp_a, &traversal_a);
    std::thread b(work, 1, &bsp_b, &traversal_b);
    a.join();
    b.join();
    for (int i = 0; i < 2; ++i) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " engine " +
                   std::to_string(i));
      EXPECT_EQ(ranks[i], solo_ranks);
      EXPECT_EQ(reached[i], solo_reached);
      EXPECT_TRUE(snapshot[i] == solo_snapshot);
      EXPECT_EQ(bsp_counters[i], solo_bsp_counters);
      EXPECT_EQ(khop_counters[i], solo_khop_counters);
      EXPECT_EQ(build_counters[i], solo_build_counters);
    }
  }
}

}  // namespace
}  // namespace trinity::compute
