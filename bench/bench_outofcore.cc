// Out-of-core graph processing (docs/memory_hierarchy.md): the same
// power-law graph is run fully resident and under a trunk memory budget of
// ~1/4 of its resident footprint (so the graph is 4x the budget), with and
// without delta-varint adjacency compression. PageRank must complete in
// every configuration with bit-identical ranks; the sweep reports the
// spill/fault traffic and the slowdown the cold tier costs, plus the
// resident-byte savings compression buys. Rows land in BENCH_outofcore.json
// with --json.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "algos/pagerank.h"
#include "bench_util.h"
#include "common/histogram.h"
#include "tfs/tfs.h"

namespace trinity {
namespace {

constexpr std::uint64_t kNodes = 20000;
constexpr double kAvgDegree = 16.0;
constexpr int kSlaves = 2;
constexpr int kPBits = 4;  // 16 trunks.
constexpr int kKhopSources = 100;

struct Config {
  const char* name;
  bool compress;
  bool out_of_core;
};

struct RunResult {
  double load_seconds = 0;
  double pagerank_seconds = 0;
  double khop_seconds = 0;
  std::string rank_image;
  storage::MemoryTrunk::Stats stats;
  std::uint64_t khop_faults = 0;
  std::uint64_t tfs_bytes_written = 0;
  std::uint64_t tfs_bytes_read = 0;
};

std::string RankImage(const algos::PageRankResult& result) {
  std::map<CellId, double> sorted(result.ranks.begin(), result.ranks.end());
  std::string image;
  image.reserve(sorted.size() * 16);
  for (const auto& [v, rank] : sorted) {
    image.append(reinterpret_cast<const char*>(&v), sizeof(v));
    image.append(reinterpret_cast<const char*>(&rank), sizeof(rank));
  }
  return image;
}

RunResult RunConfig(const Config& config, const graph::Generators::EdgeList& edges,
                    std::uint64_t memory_budget) {
  RunResult r;
  std::unique_ptr<tfs::Tfs> tfs;
  const std::string root = "/tmp/trinity_outofcore_" +
                           std::to_string(::getpid()) + "_" + config.name;
  if (config.out_of_core) {
    std::filesystem::remove_all(root);
    tfs::Tfs::Options tfs_options;
    tfs_options.root = root;
    TRINITY_CHECK(tfs::Tfs::Open(tfs_options, &tfs).ok(), "tfs open failed");
  }
  cloud::MemoryCloud::Options options;
  options.num_slaves = kSlaves;
  options.p_bits = kPBits;
  options.storage.trunk.capacity = 64ull << 20;
  options.storage.trunk.compress_adjacency = config.compress;
  if (config.out_of_core) {
    options.storage.trunk.memory_budget = memory_budget;
    options.storage.trunk.cold_page_bytes = 4 << 10;
    options.tfs = tfs.get();
  }
  std::unique_ptr<cloud::MemoryCloud> cloud;
  TRINITY_CHECK(cloud::MemoryCloud::Create(options, &cloud).ok(),
                "cloud creation failed");

  graph::Graph::Options graph_options;
  graph_options.track_inlinks = false;
  graph::Graph graph(cloud.get(), graph_options);
  Stopwatch load_watch;
  TRINITY_CHECK(graph::Generators::Load(&graph, edges, /*with_names=*/false,
                                        /*seed=*/42, /*sort_adjacency=*/true)
                    .ok(),
                "graph load failed");
  r.load_seconds = load_watch.ElapsedMicros() / 1e6;

  // PageRank over the full graph: every superstep touches every vertex, the
  // worst case for a cold tier (sequential scans defeat the clock's
  // recency signal, §6.1 of the hierarchy doc).
  algos::PageRankOptions pr_options;
  pr_options.iterations = 2;
  algos::PageRankResult result;
  Stopwatch pr_watch;
  TRINITY_CHECK(algos::RunPageRank(&graph, pr_options, &result).ok(),
                config.name);  // PageRank failed under this config.
  r.pagerank_seconds = pr_watch.ElapsedMicros() / 1e6;
  r.rank_image = RankImage(result);

  // k-hop reads: 2-hop out-neighborhoods from scattered sources — the
  // pointer-chasing access pattern the clock *can* serve from the hot set.
  const std::uint64_t faults_before =
      cloud->AggregateTrunkStats().cells_faulted;
  Stopwatch khop_watch;
  std::uint64_t touched = 0;
  for (int s = 0; s < kKhopSources; ++s) {
    const CellId source = (static_cast<CellId>(s) * 7919) % kNodes;
    std::vector<CellId> hop1;
    if (!graph.GetOutlinks(source, &hop1).ok()) continue;
    for (std::size_t i = 0; i < hop1.size() && i < 16; ++i) {
      std::vector<CellId> hop2;
      if (graph.GetOutlinks(hop1[i], &hop2).ok()) touched += hop2.size();
    }
  }
  r.khop_seconds = khop_watch.ElapsedMicros() / 1e6;
  TRINITY_CHECK(touched > 0, "k-hop traversals touched no edges");

  r.stats = cloud->AggregateTrunkStats();
  r.khop_faults = r.stats.cells_faulted - faults_before;
  if (tfs != nullptr) {
    const tfs::Tfs::Stats tfs_stats = tfs->stats();
    r.tfs_bytes_written = tfs_stats.bytes_written;
    r.tfs_bytes_read = tfs_stats.bytes_read;
  }
  cloud.reset();  // Before the TFS it points at.
  tfs.reset();
  if (config.out_of_core) std::filesystem::remove_all(root);
  return r;
}

void Run(bench::JsonEmitter* json) {
  bench::PrintHeader("Out-of-core hierarchy",
                     "PageRank + 2-hop reads, graph ~4x the trunk budget");
  const auto edges =
      graph::Generators::PowerLaw(kNodes, kAvgDegree, 2.2, 42);

  // Calibrate: measure the raw resident footprint, then budget each trunk
  // at 1/4 of its average share so the out-of-core runs host a graph four
  // times their RAM allowance.
  const Config configs[] = {
      {"resident_raw", false, false},
      {"resident_compressed", true, false},
      {"outofcore_raw", false, true},
      {"outofcore_compressed", true, true},
  };
  std::map<std::string, RunResult> results;
  std::uint64_t budget = 0;
  std::printf("%-22s %9s %9s %9s %12s %12s %10s %10s\n", "config", "load_s",
              "pr_s", "khop_s", "resident_B", "spilled_B", "evicted",
              "faulted");
  for (const Config& config : configs) {
    RunResult r = RunConfig(config, edges, budget);
    if (std::string(config.name) == "resident_raw") {
      // 2^p_bits trunks share the graph; budget each at 1/4 of its share.
      budget = r.stats.resident_bytes / (1ull << kPBits) / 4;
      TRINITY_CHECK(budget > 0, "calibration run had no resident bytes");
    }
    std::printf("%-22s %9.3f %9.3f %9.3f %12llu %12llu %10llu %10llu\n",
                config.name, r.load_seconds, r.pagerank_seconds,
                r.khop_seconds,
                static_cast<unsigned long long>(r.stats.resident_bytes),
                static_cast<unsigned long long>(r.stats.spilled_bytes),
                static_cast<unsigned long long>(r.stats.cells_evicted),
                static_cast<unsigned long long>(r.stats.cells_faulted));
    results[config.name] = std::move(r);
  }

  // Every configuration must agree with the fully-resident raw ranks bit
  // for bit: the hierarchy is transparent to computation.
  const std::string& baseline = results["resident_raw"].rank_image;
  for (const Config& config : configs) {
    TRINITY_CHECK(results[config.name].rank_image == baseline,
                  config.name);  // Ranks diverge under this config.
  }
  const double compression_saving =
      1.0 - static_cast<double>(
                results["resident_compressed"].stats.resident_bytes) /
                static_cast<double>(
                    results["resident_raw"].stats.resident_bytes);
  std::printf(
      "\nranks bit-identical across all 4 configs; compressed adjacency "
      "saves %.1f%% resident bytes\n",
      100 * compression_saving);
  std::printf(
      "out-of-core slowdown (PageRank): raw %.2fx, compressed %.2fx; "
      "k-hop fault rate: %.2f faults/source (raw)\n",
      results["outofcore_raw"].pagerank_seconds /
          results["resident_raw"].pagerank_seconds,
      results["outofcore_compressed"].pagerank_seconds /
          results["resident_compressed"].pagerank_seconds,
      static_cast<double>(results["outofcore_raw"].khop_faults) /
          kKhopSources);

  for (const Config& config : configs) {
    const RunResult& r = results[config.name];
    json->BeginRow("outofcore");
    json->Add("config", std::string(config.name));
    json->Add("compress_adjacency", config.compress);
    json->Add("out_of_core", config.out_of_core);
    json->Add("nodes", kNodes);
    json->Add("trunk_memory_budget", config.out_of_core ? budget : 0);
    json->Add("load_seconds", r.load_seconds);
    json->Add("pagerank_seconds", r.pagerank_seconds);
    json->Add("khop_seconds", r.khop_seconds);
    json->Add("resident_bytes", r.stats.resident_bytes);
    json->Add("live_bytes", r.stats.live_bytes);
    json->Add("compressed_cells", r.stats.compressed_cells);
    json->Add("compressed_bytes", r.stats.compressed_bytes);
    json->Add("spilled_cells", r.stats.spilled_cells);
    json->Add("spilled_bytes", r.stats.spilled_bytes);
    json->Add("cells_evicted", r.stats.cells_evicted);
    json->Add("cells_faulted", r.stats.cells_faulted);
    json->Add("cold_bytes_written", r.stats.cold_bytes_written);
    json->Add("cold_bytes_read", r.stats.cold_bytes_read);
    json->Add("tfs_bytes_written", r.tfs_bytes_written);
    json->Add("tfs_bytes_read", r.tfs_bytes_read);
    json->Add("khop_faults", r.khop_faults);
    json->Add("ranks_bit_identical", r.rank_image == baseline);
    const char* resident_twin =
        config.compress ? "resident_compressed" : "resident_raw";
    json->Add("pagerank_slowdown_vs_resident",
              r.pagerank_seconds / results[resident_twin].pagerank_seconds);
    json->Add("khop_slowdown_vs_resident",
              r.khop_seconds / results[resident_twin].khop_seconds);
    json->Add("compression_resident_saving", compression_saving);
  }
  bench::PrintFooter();
}

}  // namespace
}  // namespace trinity

int main(int argc, char** argv) {
  trinity::bench::JsonEmitter json("outofcore", argc, argv);
  trinity::Run(&json);
  return 0;
}
