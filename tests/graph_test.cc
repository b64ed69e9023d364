#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <set>

#include "graph/generators.h"

namespace {
// Heap allocations made by this thread while `counting_allocations` is set
// (the replaced global operator new below counts them).
thread_local bool counting_allocations = false;
thread_local std::size_t allocations = 0;
}  // namespace

// Out of line, so the compiler never pairs an inlined `new` with the
// `free` below.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (counting_allocations) ++allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace trinity::graph {
namespace {

std::unique_ptr<cloud::MemoryCloud> NewCloud(int slaves = 4,
                                             bool compress = false) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 4 << 20;
  options.storage.trunk.compress_adjacency = compress;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());
  return cloud;
}

TEST(GraphTest, NodeRoundTrip) {
  auto cloud = NewCloud();
  Graph graph(cloud.get());
  ASSERT_TRUE(graph.AddNode(1, Slice("Alice")).ok());
  EXPECT_TRUE(graph.HasNode(1));
  EXPECT_FALSE(graph.HasNode(2));
  std::string data;
  ASSERT_TRUE(graph.GetNodeData(1, &data).ok());
  EXPECT_EQ(data, "Alice");
}

TEST(GraphTest, DirectedEdgesWithInlinks) {
  auto cloud = NewCloud();
  Graph graph(cloud.get());
  for (CellId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(graph.AddNode(id, Slice()).ok());
  }
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  ASSERT_TRUE(graph.AddEdge(1, 3).ok());
  ASSERT_TRUE(graph.AddEdge(2, 3).ok());
  std::vector<CellId> out;
  ASSERT_TRUE(graph.GetOutlinks(1, &out).ok());
  EXPECT_EQ(out, (std::vector<CellId>{2, 3}));
  std::vector<CellId> in;
  ASSERT_TRUE(graph.GetInlinks(3, &in).ok());
  std::sort(in.begin(), in.end());
  EXPECT_EQ(in, (std::vector<CellId>{1, 2}));
  std::size_t degree = 0;
  ASSERT_TRUE(graph.OutDegreeFrom(cloud->client_id(), 1, &degree).ok());
  EXPECT_EQ(degree, 2u);
}

TEST(GraphTest, UndirectedEdges) {
  auto cloud = NewCloud();
  Graph::Options options;
  options.directed = false;
  Graph graph(cloud.get(), options);
  ASSERT_TRUE(graph.AddNode(1, Slice()).ok());
  ASSERT_TRUE(graph.AddNode(2, Slice()).ok());
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  std::vector<CellId> links;
  ASSERT_TRUE(graph.GetOutlinks(1, &links).ok());
  EXPECT_EQ(links, (std::vector<CellId>{2}));
  ASSERT_TRUE(graph.GetOutlinks(2, &links).ok());
  EXPECT_EQ(links, (std::vector<CellId>{1}));
  ASSERT_TRUE(graph.GetInlinks(1, &links).ok());
  EXPECT_EQ(links, (std::vector<CellId>{2}));
}

TEST(GraphTest, InlinksOptional) {
  auto cloud = NewCloud();
  Graph::Options options;
  options.track_inlinks = false;
  Graph graph(cloud.get(), options);
  ASSERT_TRUE(graph.AddNode(1, Slice()).ok());
  ASSERT_TRUE(graph.AddNode(2, Slice()).ok());
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  std::vector<CellId> links;
  EXPECT_TRUE(graph.GetInlinks(2, &links).IsNotSupported());
  ASSERT_TRUE(graph.GetOutlinks(1, &links).ok());
  EXPECT_EQ(links.size(), 1u);
}

TEST(GraphTest, EncodeDecodeRoundTrip) {
  NodeImage node;
  node.id = 9;
  node.data = "payload";
  node.out = {1, 2, 3};
  node.in = {4, 5};
  const std::string blob = Graph::EncodeNode(node);
  NodeImage decoded;
  ASSERT_TRUE(Graph::DecodeNode(9, Slice(blob), &decoded).ok());
  EXPECT_EQ(decoded.id, 9u);
  EXPECT_EQ(decoded.data, "payload");
  EXPECT_EQ(decoded.out, node.out);
  EXPECT_EQ(decoded.in, node.in);
}

TEST(GraphTest, DecodeRejectsMalformed) {
  NodeImage decoded;
  EXPECT_TRUE(Graph::DecodeNode(1, Slice("xy"), &decoded).IsCorruption());
  EXPECT_TRUE(
      Graph::DecodeNode(1, Slice("0123456789abc"), &decoded).IsCorruption());
}

TEST(GraphTest, SetNodeDataPreservesAdjacency) {
  auto cloud = NewCloud();
  Graph graph(cloud.get());
  ASSERT_TRUE(graph.AddNode(1, Slice("old")).ok());
  ASSERT_TRUE(graph.AddNode(2, Slice()).ok());
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  ASSERT_TRUE(graph.SetNodeData(1, Slice("new and different length")).ok());
  std::string data;
  ASSERT_TRUE(graph.GetNodeData(1, &data).ok());
  EXPECT_EQ(data, "new and different length");
  std::vector<CellId> out;
  ASSERT_TRUE(graph.GetOutlinks(1, &out).ok());
  EXPECT_EQ(out, (std::vector<CellId>{2}));
}

TEST(GraphTest, VisitLocalNodeZeroCopy) {
  auto cloud = NewCloud();
  Graph graph(cloud.get());
  ASSERT_TRUE(graph.AddNode(1, Slice("abc")).ok());  // 3-byte data:
  ASSERT_TRUE(graph.AddNode(2, Slice()).ok());       // misaligned id array.
  ASSERT_TRUE(graph.AddEdge(1, 2).ok());
  const MachineId owner = graph.MachineOfNode(1);
  bool visited = false;
  ASSERT_TRUE(graph
                  .VisitLocalNode(owner, 1,
                                  [&](Slice data, const CellId*, std::size_t,
                                      const CellId* out, std::size_t n) {
                                    visited = true;
                                    EXPECT_EQ(data.ToString(), "abc");
                                    ASSERT_EQ(n, 1u);
                                    EXPECT_EQ(out[0], 2u);
                                  })
                  .ok());
  EXPECT_TRUE(visited);
  // Visiting from the wrong machine reports NotFound.
  const MachineId wrong = (owner + 1) % cloud->num_slaves();
  EXPECT_TRUE(graph.VisitLocalNode(wrong, 1, [](Slice, const CellId*,
                                                std::size_t, const CellId*,
                                                std::size_t) {})
                  .IsNotFound());
}

// Nodes covering the node decoder's corners, all with sorted lists so they
// compress: a payload that shifts the raw id arrays off 8-byte alignment,
// an aligned one, empty lists, an empty payload and a hub.
std::vector<NodeImage> CornerNodes() {
  std::vector<NodeImage> nodes(6);
  nodes[0] = {1, "abc", {2, 3, 4, 9}, {5}};  // 9 is not a node.
  nodes[1] = {2, "12345678", {}, {1}};
  nodes[2] = {3, "", {}, {}};
  nodes[3] = {4, "hub", {}, {}};
  for (CellId v = 0; v < 1500; ++v) nodes[3].out.push_back(1000 + 7 * v);
  for (CellId v = 0; v < 2000; ++v) nodes[3].in.push_back(5000 + v);
  nodes[4] = {5, "x", {1}, {}};
  nodes[5] = {6, "", {1, 1, 2}, {3}};  // Parallel edges.
  return nodes;
}

struct Visited {
  std::string data;
  std::vector<CellId> in;
  std::vector<CellId> out;
  bool operator==(const Visited& o) const {
    return data == o.data && in == o.in && out == o.out;
  }
};

Visited Visit(const Graph& graph, CellId id, NodeParts parts) {
  Visited v;
  EXPECT_TRUE(graph
                  .VisitLocalNode(
                      graph.MachineOfNode(id), id,
                      [&](Slice data, const CellId* in, std::size_t in_count,
                          const CellId* out, std::size_t out_count) {
                        v.data = data.ToString();
                        v.in.assign(in, in + in_count);
                        v.out.assign(out, out + out_count);
                      },
                      parts)
                  .ok());
  return v;
}

TEST(GraphTest, RawAndCompressedVisitsAgreeForEveryPartSelection) {
  auto raw_cloud = NewCloud();
  auto comp_cloud = NewCloud(4, /*compress=*/true);
  Graph raw(raw_cloud.get());
  Graph comp(comp_cloud.get());
  const std::vector<NodeImage> nodes = CornerNodes();
  for (const NodeImage& node : nodes) {
    ASSERT_TRUE(raw.BulkAddNode(raw_cloud->client_id(), node).ok());
    ASSERT_TRUE(comp.BulkAddNode(comp_cloud->client_id(), node).ok());
  }
  EXPECT_EQ(raw_cloud->AggregateTrunkStats().compressed_cells, 0u);
  EXPECT_EQ(comp_cloud->AggregateTrunkStats().compressed_cells,
            nodes.size());
  for (const NodeImage& node : nodes) {
    for (const NodeParts parts :
         {NodeParts::kData, NodeParts::kDataOut, NodeParts::kAll}) {
      SCOPED_TRACE("node " + std::to_string(node.id) + " parts " +
                   std::to_string(static_cast<int>(parts)));
      Visited want;
      want.data = node.data;
      if (parts != NodeParts::kData) want.out = node.out;
      if (parts == NodeParts::kAll) want.in = node.in;
      EXPECT_EQ(Visit(raw, node.id, parts), want);
      EXPECT_EQ(Visit(comp, node.id, parts), want);
    }
  }
}

TEST(GraphTest, VisitorMayVisitOtherCompressedNodes) {
  auto cloud = NewCloud(1, /*compress=*/true);
  Graph graph(cloud.get());
  const std::vector<NodeImage> nodes = CornerNodes();
  for (const NodeImage& node : nodes) {
    ASSERT_TRUE(graph.BulkAddNode(cloud->client_id(), node).ok());
  }
  // Node 1's neighbors include the hub, whose lists outgrow any scratch the
  // outer visit holds: the inner visits must not touch the outer's view.
  const NodeImage& outer = nodes[0];
  std::vector<std::string> inner_names;
  ASSERT_TRUE(
      graph
          .VisitLocalNode(
              0, outer.id,
              [&](Slice data, const CellId* in, std::size_t in_count,
                  const CellId* out, std::size_t out_count) {
                for (std::size_t i = 0; i < in_count + out_count; ++i) {
                  const CellId next = i < in_count ? in[i] : out[i - in_count];
                  const Status s = graph.VisitLocalNode(
                      0, next,
                      [&](Slice inner, const CellId*, std::size_t inner_in,
                          const CellId*, std::size_t inner_out) {
                        inner_names.push_back(inner.ToString() + "/" +
                                              std::to_string(inner_in) + "/" +
                                              std::to_string(inner_out));
                      });
                  ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
                }
                EXPECT_EQ(data.ToString(), outer.data);
                EXPECT_EQ(std::vector<CellId>(in, in + in_count), outer.in);
                EXPECT_EQ(std::vector<CellId>(out, out + out_count),
                          outer.out);
              })
          .ok());
  EXPECT_EQ(inner_names,
            (std::vector<std::string>{"x/0/1", "12345678/1/0", "/0/0",
                                      "hub/2000/1500"}));
}

TEST(GraphTest, NodeVisitsDoNotAllocateInSteadyState) {
  for (const bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "compressed" : "raw");
    auto cloud = NewCloud(4, compress);
    Graph graph(cloud.get());
    const std::vector<NodeImage> nodes = CornerNodes();
    for (const NodeImage& node : nodes) {
      ASSERT_TRUE(graph.BulkAddNode(cloud->client_id(), node).ok());
    }
    std::uint64_t sum = 0;
    const Graph::LocalVisitor visitor =
        [&sum](Slice data, const CellId* in, std::size_t in_count,
               const CellId* out, std::size_t out_count) {
          sum += data.size() + in_count + out_count;
          for (std::size_t i = 0; i < in_count; ++i) sum += in[i];
          for (std::size_t i = 0; i < out_count; ++i) sum += out[i];
        };
    auto visit_all = [&] {
      for (const NodeImage& node : nodes) {
        for (const NodeParts parts :
             {NodeParts::kData, NodeParts::kDataOut, NodeParts::kAll}) {
          ASSERT_TRUE(graph
                          .VisitLocalNode(graph.MachineOfNode(node.id),
                                          node.id, visitor, parts)
                          .ok());
        }
      }
    };
    visit_all();  // Grows this thread's scratch to the hub.
    const std::uint64_t warm_sum = sum;
    allocations = 0;
    counting_allocations = true;
    visit_all();
    counting_allocations = false;
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(sum, 2 * warm_sum);
  }
}

TEST(GraphTest, LocalNodesPartitionWholeGraph) {
  auto cloud = NewCloud();
  Graph graph(cloud.get());
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(graph.AddNode(id, Slice()).ok());
  }
  std::set<CellId> seen;
  for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
    for (CellId id : graph.LocalNodes(m)) {
      EXPECT_TRUE(seen.insert(id).second) << "node " << id << " seen twice";
    }
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(graph.CountNodes(), 100u);
}

TEST(GeneratorsTest, RmatShape) {
  const auto edges = Generators::Rmat(1024, 8.0, 42);
  EXPECT_EQ(edges.num_nodes, 1024u);
  EXPECT_EQ(edges.edges.size(), 8192u);
  for (const auto& [src, dst] : edges.edges) {
    ASSERT_LT(src, 1024u);
    ASSERT_LT(dst, 1024u);
  }
  // R-MAT skew: some vertices get far more than the average degree.
  std::vector<int> degree(1024, 0);
  for (const auto& [src, dst] : edges.edges) {
    (void)dst;
    ++degree[src];
  }
  EXPECT_GT(*std::max_element(degree.begin(), degree.end()), 40);
}

TEST(GeneratorsTest, RmatDeterministic) {
  const auto a = Generators::Rmat(256, 4.0, 7);
  const auto b = Generators::Rmat(256, 4.0, 7);
  const auto c = Generators::Rmat(256, 4.0, 8);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_NE(a.edges, c.edges);
}

TEST(GeneratorsTest, AllGeneratorsDeterministicUnderSeed) {
  // Analytics snapshots are validated against naive recounts of the same
  // graph, so generator runs under one seed must agree edge-for-edge.
  const auto pl_a = Generators::PowerLaw(512, 6.0, 2.16, 21);
  const auto pl_b = Generators::PowerLaw(512, 6.0, 2.16, 21);
  EXPECT_EQ(pl_a.edges, pl_b.edges);
  EXPECT_NE(pl_a.edges, Generators::PowerLaw(512, 6.0, 2.16, 22).edges);

  const auto un_a = Generators::Uniform(512, 6.0, 21);
  EXPECT_EQ(un_a.edges, Generators::Uniform(512, 6.0, 21).edges);
  const auto co_a = Generators::Community(8, 64, 6.0, 2.0, 21);
  EXPECT_EQ(co_a.edges, Generators::Community(8, 64, 6.0, 2.0, 21).edges);
}

TEST(GeneratorsTest, DegreeDistributionsMatchShape) {
  // Skewed generators must produce heavy tails (hubs far above the mean);
  // the uniform generator must not. This is what the adaptive triangle
  // kernels key off, so the shapes are load-bearing for the benchmarks.
  const auto degrees = [](const Generators::EdgeList& list) {
    std::vector<int> d(list.num_nodes, 0);
    for (const auto& [src, dst] : list.edges) {
      ++d[src];
      ++d[dst];
    }
    std::sort(d.begin(), d.end(), std::greater<int>());
    return d;
  };
  const double avg_degree = 8.0;
  for (const bool powerlaw : {false, true}) {
    const auto list = powerlaw
                          ? Generators::PowerLaw(4096, avg_degree, 2.16, 5)
                          : Generators::Rmat(4096, avg_degree, 5);
    const std::vector<int> d = degrees(list);
    const double mean = 2.0 * list.edges.size() / list.num_nodes;
    EXPECT_GT(d[0], 8 * mean) << "powerlaw=" << powerlaw;
    // Top 1% of vertices carry a disproportionate share of the edges.
    std::uint64_t top = 0, total = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (i < d.size() / 100) top += d[i];
      total += d[i];
    }
    EXPECT_GT(top * 10, total) << "powerlaw=" << powerlaw;
  }
  const std::vector<int> uniform = degrees(Generators::Uniform(4096, 8.0, 5));
  const double mean = 2.0 * 8.0;
  EXPECT_LT(uniform[0], 4 * mean);
}

TEST(GeneratorsTest, PowerLawAverageDegree) {
  const auto edges = Generators::PowerLaw(2000, 13.0, 2.16, 11);
  const double avg =
      static_cast<double>(edges.edges.size()) / edges.num_nodes;
  EXPECT_GT(avg, 8.0);
  EXPECT_LT(avg, 20.0);
}

TEST(GeneratorsTest, PatentLikeIsAcyclicByConstruction) {
  const auto edges = Generators::PatentLike(500, 4.0, 3);
  for (const auto& [src, dst] : edges.edges) {
    ASSERT_LT(dst, src) << "citation must point backwards in time";
  }
}

TEST(GeneratorsTest, WordnetLikeIsConnectedRing) {
  const auto edges = Generators::WordnetLike(100, 5);
  // Ring lattice guarantees >= 2 out-edges per node.
  std::vector<int> degree(100, 0);
  for (const auto& [src, dst] : edges.edges) {
    (void)dst;
    ++degree[src];
  }
  for (int d : degree) EXPECT_GE(d, 2);
}

TEST(GeneratorsTest, NamePoolIncludesDavid) {
  bool found = false;
  for (CellId id = 0; id < 200 && !found; ++id) {
    found = Generators::NameFor(id, 1) == "David";
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(Generators::NameFor(5, 1), Generators::NameFor(5, 1));
}

TEST(GeneratorsTest, LoadMaterializesGraph) {
  auto cloud = NewCloud();
  Graph graph(cloud.get());
  const auto edges = Generators::Rmat(512, 4.0, 9);
  ASSERT_TRUE(Generators::Load(&graph, edges, /*with_names=*/true, 1).ok());
  EXPECT_EQ(graph.CountNodes(), 512u);
  // Out-degrees must sum to the edge count.
  std::uint64_t total_out = 0;
  for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
    for (CellId v : graph.LocalNodes(m)) {
      graph.VisitLocalNode(m, v,
                           [&](Slice data, const CellId*, std::size_t,
                               const CellId*, std::size_t out_count) {
                             total_out += out_count;
                             EXPECT_FALSE(data.empty());  // Has a name.
                           });
    }
  }
  EXPECT_EQ(total_out, edges.edges.size());
}

TEST(GeneratorsTest, LoadTracksInlinksConsistently) {
  auto cloud = NewCloud();
  Graph graph(cloud.get());
  const auto edges = Generators::Uniform(256, 4.0, 13);
  ASSERT_TRUE(Generators::Load(&graph, edges, false, 0).ok());
  std::uint64_t total_in = 0, total_out = 0;
  for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
    for (CellId v : graph.LocalNodes(m)) {
      graph.VisitLocalNode(m, v,
                           [&](Slice, const CellId*, std::size_t in_count,
                               const CellId*, std::size_t out_count) {
                             total_in += in_count;
                             total_out += out_count;
                           });
    }
  }
  EXPECT_EQ(total_in, total_out);
  EXPECT_EQ(total_out, edges.edges.size());
}

}  // namespace
}  // namespace trinity::graph
