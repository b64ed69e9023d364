// analytics_resident: a seeded R-MAT graph loaded with delta-varint
// adjacency compression and kept resident, then BSP PageRank, snapshot build
// plus triangle count, and a single-client probe of 2-hop and 3-hop
// explorations (the online query of the paper's Fig 12a). Traced runs and
// the output checks also load graphs out of core: every trunk gets a memory
// budget of a quarter of its resident share and spills to a cold tier on a
// TFS root inside the scratch directory.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analytics/triangles.h"
#include "bench.h"
#include "graph_jobs.h"
#include "layers.h"
#include "tfs/tfs.h"

namespace trinity::perfbench {
namespace {

using serving::QueryFrontend;

constexpr int kSlaves = 4;
constexpr int kPBits = 3;  // 8 trunks.
constexpr std::uint64_t kNodes = 1 << 12;
constexpr double kAvgDegree = 8.0;
constexpr int kPageRankIterations = 6;
// PageRank and the triangle counter run single-threaded: on a shared 4-vCPU
// host, barrier-synchronised engine pools made these timings swing far more
// from run to run than one thread does. Results are identical either way.
constexpr int kEngineThreads = 1;
// The golden graph is the same for every seed, so its rank hash and exact
// counters can be frozen beside the benchmark.
constexpr std::uint64_t kGoldenNodes = 2048;
constexpr std::uint64_t kGoldenSeed = 20130622;
constexpr int kGoldenIterations = 5;

/// One loaded graph: TFS (out-of-core only), cloud and graph, destroyed in
/// reverse order.
struct Instance {
  std::string tfs_root;
  std::unique_ptr<tfs::Tfs> tfs;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  std::unique_ptr<graph::Graph> graph;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() { Reset(); }

  void Reset() {
    graph.reset();
    cloud.reset();
    tfs.reset();
    if (!tfs_root.empty()) std::filesystem::remove_all(tfs_root);
  }

  /// Loads `edges` with names drawn from `seed`; budget 0 keeps every
  /// trunk resident.
  bool Load(const graph::Generators::EdgeList& edges, std::uint64_t seed,
            std::uint64_t budget, const std::string& root) {
    Reset();
    cloud::MemoryCloud::Options options;
    options.num_slaves = kSlaves;
    options.p_bits = kPBits;
    options.storage.trunk.capacity = 16ull << 20;
    options.storage.trunk.compress_adjacency = true;
    if (budget > 0) {
      tfs_root = root;
      std::filesystem::remove_all(root);
      tfs::Tfs::Options tfs_options;
      tfs_options.root = root;
      if (!tfs::Tfs::Open(tfs_options, &tfs).ok()) return false;
      options.storage.trunk.memory_budget = budget;
      options.storage.trunk.cold_page_bytes = 4 << 10;
      options.tfs = tfs.get();
    }
    if (!cloud::MemoryCloud::Create(options, &cloud).ok()) return false;
    graph = std::make_unique<graph::Graph>(cloud.get(), graph::Graph::Options{});
    return graph::Generators::Load(graph.get(), edges, /*with_names=*/true,
                                   seed, /*sort_adjacency=*/true)
        .ok();
  }
};

/// A quarter of the average per-trunk share of the resident footprint of
/// `edges` loaded with names drawn from `seed`.
std::uint64_t QuarterBudget(const graph::Generators::EdgeList& edges,
                            std::uint64_t seed) {
  Instance resident;
  if (!resident.Load(edges, seed, 0, "")) return 0;
  const std::uint64_t bytes =
      resident.cloud->AggregateTrunkStats().resident_bytes;
  return std::max<std::uint64_t>(1, bytes / (1ull << kPBits) / 4);
}

class Analytics : public Workload {
 public:
  Analytics(std::uint64_t seed, const std::string& scratch)
      : seed_(seed),
        root_(scratch + "/tfs-" + std::to_string(::getpid())),
        edges_(graph::Generators::Rmat(kNodes, kAvgDegree, seed)),
        adj_(edges_) {
    for (CellId v = 0; v < kNodes; ++v) {
      if (!adj_.Out(v).empty()) linked_.push_back(v);
    }
  }

  ~Analytics() override { Teardown(); }

  bool Setup() override {
    Teardown();
    if (!main_.Load(edges_, seed_, 0, "")) return false;
    frontend_ = std::make_unique<QueryFrontend>(
        main_.cloud.get(), main_.graph.get(), QueryFrontend::Options{});
    return true;
  }

  void Pass(Json& out) override {
    PageRankPass(out, main_.graph.get(), kPageRankIterations, kEngineThreads);
    out.Num("stored_bytes_per_item",
            StoredBytesPerEdge(main_.graph.get(), adj_.num_edges()));
  }

  void Snapshot(Json& out) override {
    SnapshotTriangles(out, main_.graph.get(), kEngineThreads, &triangles_);
  }

  // 2-hop and 3-hop explorations from vertices that have out-links: a
  // start without any visits only itself and would make the median
  // bimodal. One client on one engine: the frontend serializes
  // explorations, and building an engine per request, as it does, makes
  // their tail follow the host's thread scheduling rather than the graph.
  // `queries` 2-hop and a quarter as many 3-hop explorations per run.
  void Probe(Json& out, int slice, int slices,
             std::uint64_t queries) override {
    std::vector<std::pair<CellId, int>> two, three;
    for (std::uint64_t j = slice; j < queries; j += slices) {
      two.emplace_back(Linked(kProbeBase + j), 2);
    }
    for (std::uint64_t j = slice; j < queries / 4; j += slices) {
      three.emplace_back(Linked(kProbeBase + queries + j), 3);
    }
    const KHopSamples a = KHopProbe(main_.graph.get(), adj_, two);
    const KHopSamples b = KHopProbe(main_.graph.get(), adj_, three);
    out.Bool("ok", a.failed + b.failed == 0)
        .Int("checks", two.size() + three.size())
        .Int("failed", a.failed + b.failed);
    EmitSamples(out, "modeled_ms", a.modeled_ms);
    out.Begin("online");
    EmitSamples(out, "low", a.wall_us);
    EmitSamples(out, "high", b.wall_us);
    out.End();
    EmitTraversal(out, a);
  }

  // The triangle count must equal the cell-at-a-time anchor. The golden
  // graph runs resident and out of core; run.py compares both rank hashes
  // and the exact counters with their frozen values.
  void Check(Json& out) override {
    std::uint64_t naive = 0;
    const Status s =
        analytics::CountTrianglesNaive(main_.graph.get(), &naive, nullptr);
    const bool triangles_ok = s.ok() && naive == triangles_;
    out.Bool("ok", triangles_ok)
        .Int("checks", 1)
        .Int("failed", triangles_ok ? 0 : 1)
        .Int("triangles", triangles_)
        .Int("triangles_anchor", naive);
    const graph::Generators::EdgeList golden =
        graph::Generators::Rmat(kGoldenNodes, kAvgDegree, kGoldenSeed);
    out.Begin("golden");
    for (const bool out_of_core : {false, true}) {
      Instance g;
      const std::uint64_t budget =
          out_of_core ? QuarterBudget(golden, kGoldenSeed) : 0;
      out.Begin(out_of_core ? "outofcore" : "resident");
      if (g.Load(golden, kGoldenSeed, budget, root_ + "-golden")) {
        Steps(out, g, kGoldenIterations);
      }
      out.End();
    }
    out.End();
  }

  void Counters(Json& out) override {
    out.Bool("ok", true);
    EmitCounters(out, *main_.cloud, frontend_.get(), nullptr);
  }

  // k-hop and people search through the frontend and straight into their
  // engines, then the out-of-core pass.
  void Replay(int samples, SpanLog* spans, Json& out) override {
    std::vector<std::pair<CellId, std::string>> traversals;
    for (int j = 0; j < samples; ++j) {
      const CellId start = Linked(kReplayBase + j);
      traversals.emplace_back(
          start, graph::Generators::NameFor(Mix64(start ^ j), seed_));
    }
    out.Bool("ok", true);
    ReplayTraversals(out, *frontend_, main_.graph.get(), traversals,
                     kReplayBase, spans);
    ColdPass(out);
  }

 private:
  static constexpr std::uint64_t kProbeBase = 1ull << 60;
  static constexpr std::uint64_t kReplayBase = 1ull << 61;

  CellId Linked(std::uint64_t i) const {
    RequestRng rng(seed_, i);
    return linked_[rng.Uniform(linked_.size())];
  }

  /// One PageRank pass and one snapshot step on `g`, as raw replies.
  static void Steps(Json& out, Instance& g, int iterations) {
    Json pass;
    pass.Begin();
    PageRankPass(pass, g.graph.get(), iterations, kEngineThreads);
    pass.End();
    std::uint64_t triangles = 0;
    Json snap;
    snap.Begin();
    SnapshotTriangles(snap, g.graph.get(), kEngineThreads, &triangles);
    snap.End();
    out.Bool("ok", true).Raw("pass", pass.text()).Raw("snapshot",
                                                      snap.text());
  }

  // The same graph with a trunk budget of a quarter of its resident share:
  // a resident pass first, then the same steps out of core, so the slowdown
  // compares two passes made under the same host conditions. The cold tier
  // and TFS counters are taken before and after the out-of-core steps.
  void ColdPass(Json& out) {
    Json resident;
    resident.Begin();
    PageRankPass(resident, main_.graph.get(), kPageRankIterations,
                 kEngineThreads);
    resident.End();
    out.Begin("cold").Raw("resident_pass", resident.text());
    Instance cold;
    if (!cold.Load(edges_, seed_, QuarterBudget(edges_, seed_), root_)) {
      out.Bool("ok", false).End();
      return;
    }
    out.Begin("loaded");
    EmitCounters(out, *cold.cloud, nullptr, cold.tfs.get());
    out.End();
    Steps(out, cold, kPageRankIterations);
    out.Begin("after");
    EmitCounters(out, *cold.cloud, nullptr, cold.tfs.get());
    out.End().End();
  }

  void Teardown() {
    frontend_.reset();
    main_.Reset();
  }

  const std::uint64_t seed_;
  const std::string root_;
  const graph::Generators::EdgeList edges_;
  const Adjacency adj_;
  std::vector<CellId> linked_;  ///< Vertices with at least one out-link.
  Instance main_;
  std::unique_ptr<QueryFrontend> frontend_;
  std::uint64_t triangles_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytics(std::uint64_t seed,
                                        const std::string& scratch_dir) {
  return std::make_unique<Analytics>(seed, scratch_dir);
}

}  // namespace trinity::perfbench
