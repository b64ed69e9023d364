// Recovery benchmark: hot-standby promotion failover versus cold reload
// from the TFS snapshot tier. One machine of eight is killed after loading
// a keyspace; the sweep reports how the cluster gets back to full health
// under replication factors k = 0 (cold reload), 1 and 2.
//
// Reported per row:
//  * wall_recovery_micros        — host time for the DetectAndRecover sweep
//  * promote_micros              — simulated time-to-promote (metadata flip)
//  * full_replication_micros     — simulated time until the replication
//                                  factor is restored across survivors
//  * bytes_rereplicated          — background repair traffic
//  * degraded_reads              — reads served by replicas before the sweep
//  * tfs_files_read              — cold-tier reads during recovery (zero on
//                                  the hot-standby path)
//  * replica_memory_bytes        — memory overhead of the standby copies

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench_util.h"
#include "net/fault_injector.h"
#include "tfs/tfs.h"

namespace trinity {
namespace {

void Run(bench::JsonEmitter* json) {
  bench::PrintHeader("Recovery",
                     "failover after 1-of-8 machine loss, hot vs cold");
  std::printf("%7s %8s %12s %14s %16s %14s %12s %12s\n", "cells", "k",
              "wall_us", "promote_us", "full_repl_us", "repl_bytes",
              "tfs_reads", "degraded");
  const std::size_t kPayload = 256;
  for (std::uint64_t cells : {2048ULL, 8192ULL}) {
    for (int k : {0, 1, 2}) {
      tfs::Tfs::Options tfs_options;
      tfs_options.root = "/tmp/trinity_bench_recovery_" +
                         std::to_string(cells) + "_" + std::to_string(k);
      std::filesystem::remove_all(tfs_options.root);
      std::unique_ptr<tfs::Tfs> tfs_;
      TRINITY_CHECK(tfs::Tfs::Open(tfs_options, &tfs_).ok(), "tfs open");

      cloud::MemoryCloud::Options options;
      options.num_slaves = 8;
      options.p_bits = 6;
      options.tfs = tfs_.get();
      options.replication_factor = k;
      std::unique_ptr<cloud::MemoryCloud> cloud;
      TRINITY_CHECK(cloud::MemoryCloud::Create(options, &cloud).ok(),
                    "cloud create");

      const std::string payload(kPayload, 'r');
      for (CellId id = 0; id < cells; ++id) {
        TRINITY_CHECK(cloud->PutCell(id, Slice(payload)).ok(), "load");
      }
      // The cold tier always exists; the hot path must simply never touch it.
      TRINITY_CHECK(cloud->SaveSnapshot().ok(), "snapshot");
      const std::uint64_t replica_bytes = cloud->ReplicaMemoryBytes();

      const MachineId victim = 3;
      TRINITY_CHECK(cloud->FailMachine(victim).ok(), "fail");

      // Degraded window: reads issued between the failure and the sweep are
      // served by in-sync replicas (k > 0) or fail over to recovery (k = 0,
      // where the first touch triggers the cold reload inline).
      std::uint64_t degraded_ok = 0;
      if (k > 0) {
        for (CellId id = 0; id < 100; ++id) {
          std::string out;
          if (cloud->GetCell(id, &out).ok()) ++degraded_ok;
        }
      }

      const tfs::Tfs::Stats tfs_before = tfs_->stats();
      Stopwatch watch;
      cloud->DetectAndRecover();
      const double wall_micros = watch.ElapsedMicros();
      const tfs::Tfs::Stats tfs_after = tfs_->stats();
      const net::RecoveryStats rs = cloud->recovery_stats();

      // Everything must be readable again, whichever path recovered it.
      for (CellId id = 0; id < cells; id += 97) {
        std::string out;
        TRINITY_CHECK(cloud->GetCell(id, &out).ok(), "post-recovery read");
      }
      TRINITY_CHECK(cloud->Audit().ok(), "post-recovery audit");

      const std::uint64_t tfs_reads =
          tfs_after.files_read - tfs_before.files_read;
      std::printf("%7llu %8d %12.0f %14llu %16llu %14llu %12llu %12llu\n",
                  static_cast<unsigned long long>(cells), k, wall_micros,
                  static_cast<unsigned long long>(rs.last_promote_micros),
                  static_cast<unsigned long long>(
                      rs.last_full_replication_micros),
                  static_cast<unsigned long long>(rs.bytes_rereplicated),
                  static_cast<unsigned long long>(tfs_reads),
                  static_cast<unsigned long long>(rs.degraded_reads));
      json->BeginRow("recovery");
      json->Add("cells", cells);
      json->Add("replication_factor", k);
      json->Add("wall_recovery_micros", wall_micros);
      json->Add("promote_micros", rs.last_promote_micros);
      json->Add("full_replication_micros", rs.last_full_replication_micros);
      json->Add("bytes_rereplicated", rs.bytes_rereplicated);
      json->Add("trunks_rereplicated", rs.trunks_rereplicated);
      json->Add("degraded_reads", rs.degraded_reads);
      json->Add("degraded_reads_ok", degraded_ok);
      json->Add("fenced_writes", rs.fenced_writes);
      json->Add("tfs_files_read", tfs_reads);
      json->Add("tfs_fallback_reloads", rs.tfs_fallback_reloads);
      json->Add("promotions", rs.promotions);
      json->Add("replica_memory_bytes", replica_bytes);
      json->Add("primary_memory_bytes", cloud->MemoryFootprintBytes());
      std::filesystem::remove_all(tfs_options.root);
    }
  }
  std::printf(
      "(hot-standby promotion is a metadata flip — zero TFS reads; cold "
      "k=0 reloads every lost trunk from the snapshot tier)\n");
  bench::PrintFooter();
}

}  // namespace
}  // namespace trinity

int main(int argc, char** argv) {
  trinity::bench::JsonEmitter json("recovery", argc, argv);
  trinity::Run(&json);
  return 0;
}
