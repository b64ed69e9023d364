// Graph steps of the analytics workloads: BSP PageRank, snapshot build plus
// triangle count, the single-client k-hop probe, the layered k-hop and TQL
// replays, and the reference BFS the output checks compare against.

#ifndef TRINITY_PERFBENCH_GRAPH_JOBS_H_
#define TRINITY_PERFBENCH_GRAPH_JOBS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "serving/query_frontend.h"

namespace trinity::perfbench {

/// Out-adjacency of a generated edge list, the ground truth for checks.
class Adjacency {
 public:
  explicit Adjacency(const graph::Generators::EdgeList& edges);
  std::uint64_t num_nodes() const { return offsets_.size() - 1; }
  std::uint64_t num_edges() const { return targets_.size(); }
  /// Sorted out-neighbours of v (duplicates kept, as loaded).
  std::vector<CellId> Out(CellId v) const;
  /// Distinct vertices a single-threaded BFS from `start` reaches within
  /// `max_depth` hops, `start` included.
  std::uint64_t Reach(CellId start, int max_depth) const;

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<CellId> targets_;
};

/// Sorted-rank hash of a PageRank result: every (vertex, rank bits) pair in
/// vertex order folded through Mix64. Bit-identical ranks give equal hashes.
std::string RankHash(const std::unordered_map<CellId, double>& ranks);

/// Runs BSP PageRank for `iterations` and emits pass_s / pass_modeled_s
/// per iteration, the engine's RunStats counters and the rank hash.
void PageRankPass(Json& out, graph::Graph* graph, int iterations,
                  int threads);

/// SnapshotBuilder::Build plus TriangleCounter::Count; emits snapshot_s,
/// the build/count split and the counter's stats. Stores the triangle count
/// in *triangles.
void SnapshotTriangles(Json& out, graph::Graph* graph, int threads,
                       std::uint64_t* triangles);

/// Per-query results of a single-client k-hop probe.
struct KHopSamples {
  std::vector<double> wall_us;
  std::vector<double> modeled_ms;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t visited = 0;
  std::uint64_t failed = 0;  ///< Failed, or visited count off the BFS.
};

/// Single-client TraversalEngine::KHopExplore over `queries` (start, hops)
/// on one engine. Each query's visited count is checked against `adj`.
KHopSamples KHopProbe(graph::Graph* graph, const Adjacency& adj,
                      const std::vector<std::pair<CellId, int>>& queries);

/// Emits `samples` as a JSON array named `key`.
void EmitSamples(Json& out, const char* key, const std::vector<double>& v);

/// Emits the probe's traversal counters as object "traversal".
void EmitTraversal(Json& out, const KHopSamples& probe);

/// The same k-hop and people-search requests through the frontend, then
/// straight into the engine it dispatches to (TraversalEngine, query::Tql),
/// one request id per pair of spans. Emits median spans per layer and the
/// frontend's p99.
void ReplayTraversals(Json& out, serving::QueryFrontend& frontend,
                      graph::Graph* graph,
                      const std::vector<std::pair<CellId, std::string>>& qs,
                      std::uint64_t first_req, SpanLog* spans);

/// Stored bytes (resident plus spilled) per edge.
double StoredBytesPerEdge(graph::Graph* graph, std::uint64_t edges);

}  // namespace trinity::perfbench

#endif  // TRINITY_PERFBENCH_GRAPH_JOBS_H_
