#include "graph_jobs.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "algos/pagerank.h"
#include "analytics/graph_snapshot.h"
#include "analytics/triangles.h"
#include "compute/traversal.h"
#include "query/tql.h"

namespace trinity::perfbench {

Adjacency::Adjacency(const graph::Generators::EdgeList& edges)
    : offsets_(edges.num_nodes + 1, 0) {
  for (const auto& [src, dst] : edges.edges) ++offsets_[src + 1];
  for (std::size_t v = 1; v < offsets_.size(); ++v) {
    offsets_[v] += offsets_[v - 1];
  }
  targets_.resize(edges.edges.size());
  std::vector<std::uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [src, dst] : edges.edges) targets_[fill[src]++] = dst;
  for (std::size_t v = 0; v + 1 < offsets_.size(); ++v) {
    std::sort(targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
              targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]));
  }
}

std::vector<CellId> Adjacency::Out(CellId v) const {
  return {targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
          targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1])};
}

std::uint64_t Adjacency::Reach(CellId start, int max_depth) const {
  std::vector<std::uint8_t> seen(num_nodes(), 0);
  std::vector<CellId> frontier{start}, next;
  seen[start] = 1;
  std::uint64_t count = 1;
  for (int depth = 0; depth < max_depth && !frontier.empty(); ++depth) {
    next.clear();
    for (CellId v : frontier) {
      for (std::uint64_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
        const CellId u = targets_[e];
        if (!seen[u]) {
          seen[u] = 1;
          next.push_back(u);
        }
      }
    }
    count += next.size();
    frontier.swap(next);
  }
  return count;
}

std::string RankHash(const std::unordered_map<CellId, double>& ranks) {
  std::vector<std::pair<CellId, double>> sorted(ranks.begin(), ranks.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = Mix64(sorted.size());
  for (const auto& [v, rank] : sorted) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &rank, sizeof(bits));
    h = Mix64(h ^ v);
    h = Mix64(h ^ bits);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void PageRankPass(Json& out, graph::Graph* graph, int iterations,
                  int threads) {
  algos::PageRankOptions options;
  options.iterations = iterations;
  options.bsp.num_threads = threads;
  algos::PageRankResult result;
  const std::int64_t start = NowNs();
  const Status s = algos::RunPageRank(graph, options, &result);
  const double wall = (NowNs() - start) / 1e9;
  const compute::BspEngine::RunStats& st = result.stats;
  double step_max = 0.0;
  for (double v : st.superstep_seconds) step_max = std::max(step_max, v);
  out.Bool("ok", s.ok())
      .Num("pass_s", wall / iterations)
      .Num("pass_modeled_s", st.modeled_seconds / iterations)
      .Str("rank_hash", RankHash(result.ranks))
      .Begin("bsp")
      .Int("supersteps", static_cast<std::uint64_t>(st.supersteps))
      .Int("messages", st.messages)
      .Int("transfers", st.transfers)
      .Int("bytes", st.bytes)
      .Num("superstep_modeled_s_max", step_max)
      .End();
}

void SnapshotTriangles(Json& out, graph::Graph* graph, int threads,
                       std::uint64_t* triangles) {
  analytics::SnapshotBuilder::BuildStats build;
  analytics::TriangleStats count;
  analytics::TriangleOptions options;
  options.num_threads = threads;
  const std::int64_t start = NowNs();
  std::vector<analytics::GraphSnapshot> views;
  Status s = analytics::SnapshotBuilder::Build(graph, &views, &build);
  const std::int64_t built = NowNs();
  if (s.ok()) {
    analytics::TriangleCounter counter(graph, options);
    s = counter.Count(views, &count);
  }
  const std::int64_t end = NowNs();
  *triangles = count.triangles;
  out.Bool("ok", s.ok())
      .Num("snapshot_s", (end - start) / 1e9)
      .Begin("analytics")
      .Num("snapshot_build_s", (built - start) / 1e9)
      .Num("count_s", (end - built) / 1e9)
      .Int("triangles", count.triangles)
      .Int("comparisons", count.total_comparisons())
      .Int("boundary_bytes", count.boundary_bytes)
      .Int("boundary_calls", count.boundary_calls)
      .End();
}

KHopSamples KHopProbe(graph::Graph* graph, const Adjacency& adj,
                      const std::vector<std::pair<CellId, int>>& queries) {
  compute::TraversalEngine engine(graph);
  KHopSamples out;
  for (const auto& [source, hops] : queries) {
    compute::TraversalEngine::QueryStats st;
    std::uint64_t seen = 0;
    const std::int64_t start = NowNs();
    const Status s = engine.KHopExplore(
        source, hops,
        [&seen](CellId, int, Slice) {
          ++seen;
          return true;
        },
        &st);
    out.wall_us.push_back((NowNs() - start) / 1e3);
    if (!s.ok() || seen != adj.Reach(source, hops)) ++out.failed;
    out.modeled_ms.push_back(st.modeled_millis);
    out.rounds += static_cast<std::uint64_t>(st.rounds);
    out.messages += st.messages;
    out.visited += st.visited;
  }
  return out;
}

void EmitSamples(Json& out, const char* key, const std::vector<double>& v) {
  out.BeginArray(key);
  for (double x : v) out.Num(nullptr, x);
  out.EndArray();
}

void EmitTraversal(Json& out, const KHopSamples& probe) {
  const double n = static_cast<double>(
      std::max<std::size_t>(1, probe.wall_us.size()));
  std::vector<double> sorted = probe.wall_us;
  std::sort(sorted.begin(), sorted.end());
  out.Begin("traversal")
      .Int("queries", probe.wall_us.size())
      .Num("khop_us_p50", SortedPercentile(sorted, 50.0))
      .Num("khop_us_p99", SortedPercentile(sorted, 99.0))
      .Num("modeled_ms_p50", Median(probe.modeled_ms))
      .Num("rounds_mean", static_cast<double>(probe.rounds) / n)
      .Num("messages_per_query", static_cast<double>(probe.messages) / n)
      .Num("visited_per_query", static_cast<double>(probe.visited) / n)
      .End();
}

namespace {

/// People search as TQL: count the vertices named `name` within 1..2 hops.
std::string PeopleSearch(CellId start, const std::string& name) {
  return "COUNT FROM " + std::to_string(start) + " HOPS 1..2 WHERE NAME = '" +
         name + "'";
}

}  // namespace

void ReplayTraversals(Json& out, serving::QueryFrontend& frontend,
                      graph::Graph* graph,
                      const std::vector<std::pair<CellId, std::string>>& qs,
                      std::uint64_t first_req, SpanLog* spans) {
  using Request = serving::QueryFrontend::Request;
  const std::uint8_t l_khop = spans->Layer("serving.khop");
  const std::uint8_t l_engine = spans->Layer("compute.khop");
  const std::uint8_t l_tql = spans->Layer("serving.tql");
  const std::uint8_t l_query = spans->Layer("query.tql");
  std::vector<double> khop_top, khop_low, tql_top, tql_low;
  std::uint64_t failed = 0;
  for (std::size_t j = 0; j < qs.size(); ++j) {
    const auto& [start, name] = qs[j];
    const std::uint64_t req = first_req + 2 * j;
    serving::QueryFrontend::Response response;
    Request khop;
    khop.type = serving::QueryFrontend::RequestType::kKHop;
    khop.id = start;
    khop.hops = 2;
    std::int64_t a = NowNs();
    bool ok = frontend.Execute(khop, &response).ok();
    std::int64_t b = NowNs();
    spans->Add({req, l_khop, 0, a, b});
    khop_top.push_back((b - a) / 1e3);
    compute::TraversalEngine engine(graph);
    compute::TraversalEngine::QueryStats st;
    a = NowNs();
    ok = engine
             .KHopExplore(start, 2, [](CellId, int, Slice) { return true; },
                          &st)
             .ok() &&
         ok;
    b = NowNs();
    spans->Add({req, l_engine, 1, a, b});
    khop_low.push_back((b - a) / 1e3);

    Request tql;
    tql.type = serving::QueryFrontend::RequestType::kTql;
    tql.statement = PeopleSearch(start, name);
    a = NowNs();
    ok = frontend.Execute(tql, &response).ok() && ok;
    b = NowNs();
    spans->Add({req + 1, l_tql, 0, a, b});
    tql_top.push_back((b - a) / 1e3);
    query::Tql direct(graph);
    query::Tql::Result result;
    a = NowNs();
    ok = direct.Execute(tql.statement, &result).ok() && ok;
    b = NowNs();
    spans->Add({req + 1, l_query, 1, a, b});
    tql_low.push_back((b - a) / 1e3);
    if (!ok) ++failed;
  }
  auto emit = [&out](const char* key, std::vector<double> top,
                     std::vector<double> low, const char* low_key) {
    std::sort(top.begin(), top.end());
    out.Begin(key)
        .Int("samples", top.size())
        .Num("serving_us", Median(top))
        .Num("serving_p99_us", SortedPercentile(top, 99.0))
        .Num(low_key, Median(std::move(low)))
        .End();
  };
  out.Int("traversal_failed", failed);
  emit("khop", std::move(khop_top), std::move(khop_low), "engine_us");
  emit("tql", std::move(tql_top), std::move(tql_low), "query_us");
}

double StoredBytesPerEdge(graph::Graph* graph, std::uint64_t edges) {
  const storage::MemoryTrunk::Stats t = graph->cloud()->AggregateTrunkStats();
  return static_cast<double>(t.live_bytes + t.spilled_bytes) /
         static_cast<double>(std::max<std::uint64_t>(1, edges));
}

}  // namespace trinity::perfbench
