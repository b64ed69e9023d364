// Unit coverage for hot-standby trunk replication: rendezvous placement,
// the synchronous write path, degraded reads, promotion failover, epoch
// fencing, sweep reports and re-replication. Deterministic companions to
// the randomized scenarios in chaos_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloud/memory_cloud.h"
#include "cloud/replica_placement.h"
#include "net/fault_injector.h"
#include "tfs/tfs.h"

namespace trinity {
namespace {

// ------------------------------------------------------------- placement

std::vector<MachineId> Machines(int n) {
  std::vector<MachineId> v;
  for (MachineId m = 0; m < n; ++m) v.push_back(m);
  return v;
}

TEST(ReplicaPlacementTest, DistinctMachinesAndNeverThePrimary) {
  const std::vector<MachineId> machines = Machines(8);
  for (TrunkId t = 0; t < 64; ++t) {
    for (MachineId primary = 0; primary < 8; ++primary) {
      for (int k = 1; k <= 4; ++k) {
        const std::vector<MachineId> targets =
            cloud::ReplicaTargets(t, primary, k, machines);
        ASSERT_EQ(targets.size(), static_cast<std::size_t>(k));
        std::set<MachineId> distinct(targets.begin(), targets.end());
        EXPECT_EQ(distinct.size(), targets.size())
            << "trunk " << t << " placed two replicas on one machine";
        EXPECT_EQ(distinct.count(primary), 0u)
            << "trunk " << t << " placed a replica on its primary";
      }
    }
  }
}

TEST(ReplicaPlacementTest, IndependentOfCandidateOrdering) {
  std::vector<MachineId> machines = Machines(6);
  const std::vector<MachineId> forward =
      cloud::ReplicaTargets(7, 2, 3, machines);
  std::reverse(machines.begin(), machines.end());
  EXPECT_EQ(cloud::ReplicaTargets(7, 2, 3, machines), forward);
}

// The consistent-hashing property: removing one machine re-places only the
// replicas that lived on it — survivors keep their assignments.
TEST(ReplicaPlacementTest, StableUnderMembershipChurn) {
  const std::vector<MachineId> all = Machines(8);
  const MachineId removed = 5;
  std::vector<MachineId> shrunk;
  for (MachineId m : all) {
    if (m != removed) shrunk.push_back(m);
  }
  int moved = 0, kept = 0;
  for (TrunkId t = 0; t < 128; ++t) {
    const MachineId primary = t % 8 == removed ? 0 : t % 8;
    const auto before = cloud::ReplicaTargets(t, primary, 2, all);
    const auto after = cloud::ReplicaTargets(t, primary, 2, shrunk);
    for (MachineId b : before) {
      const bool still = std::find(after.begin(), after.end(), b) !=
                         after.end();
      if (b == removed) {
        EXPECT_FALSE(still);
        ++moved;
      } else {
        EXPECT_TRUE(still) << "trunk " << t << ": survivor " << b
                           << " lost its replica to churn";
        ++kept;
      }
    }
  }
  EXPECT_GT(moved, 0);  // The removed machine did hold replicas.
  EXPECT_GT(kept, moved);
}

TEST(ReplicaPlacementTest, GracefulWhenClusterSmallerThanKPlusOne) {
  EXPECT_EQ(cloud::ReplicaTargets(3, 0, 3, Machines(2)),
            (std::vector<MachineId>{1}));
  EXPECT_TRUE(cloud::ReplicaTargets(3, 0, 2, Machines(1)).empty());
  EXPECT_TRUE(cloud::ReplicaTargets(3, 0, 0, Machines(8)).empty());
}

// ---------------------------------------------------------- cloud fixture

std::string FreshTfsRoot(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "/repl_" + tag + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

struct Cluster {
  std::unique_ptr<tfs::Tfs> tfs;
  std::unique_ptr<net::FaultInjector> injector;
  std::unique_ptr<cloud::MemoryCloud> cloud;
};

Cluster NewReplicatedCluster(const std::string& tag, int replication_factor,
                             bool with_tfs, bool auto_promote = true,
                             int slaves = 4) {
  Cluster c;
  if (with_tfs) {
    tfs::Tfs::Options tfs_options;
    tfs_options.root = FreshTfsRoot(tag);
    EXPECT_TRUE(tfs::Tfs::Open(tfs_options, &c.tfs).ok());
  }
  c.injector = std::make_unique<net::FaultInjector>(0x5eedu);
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  options.tfs = c.tfs.get();
  options.replication_factor = replication_factor;
  options.auto_promote = auto_promote;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &c.cloud).ok());
  c.cloud->fabric().SetFaultInjector(c.injector.get());
  return c;
}

// First cell id hashing into a trunk owned by `machine`.
CellId CellOwnedBy(cloud::MemoryCloud* cloud, MachineId machine) {
  for (CellId id = 0; id < 100000; ++id) {
    if (cloud->MachineOf(id) == machine) return id;
  }
  ADD_FAILURE() << "no cell hashes to machine " << machine;
  return 0;
}

// ------------------------------------------------------------- protocol

TEST(ReplicationTest, CreateRejectsReplicationPlusBufferedLogging) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.buffered_logging = true;
  options.replication_factor = 2;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  EXPECT_TRUE(
      cloud::MemoryCloud::Create(options, &cloud).IsInvalidArgument());
  options.buffered_logging = false;
  options.replication_factor = -1;
  EXPECT_TRUE(
      cloud::MemoryCloud::Create(options, &cloud).IsInvalidArgument());
}

TEST(ReplicationTest, EveryTrunkSeededWithDistinctReplicas) {
  Cluster c = NewReplicatedCluster("seed", 2, /*with_tfs=*/false);
  const cloud::AddressingTable& table = c.cloud->table();
  for (TrunkId t = 0; t < table.num_slots(); ++t) {
    const auto& replicas = table.replicas_of_trunk(t);
    ASSERT_EQ(replicas.size(), 2u);
    std::set<MachineId> holders(replicas.begin(), replicas.end());
    holders.insert(table.machine_of_trunk(t));
    EXPECT_EQ(holders.size(), 3u) << "trunk " << t;
    // Each replica machine actually hosts the replica trunk.
    for (MachineId r : replicas) {
      EXPECT_NE(c.cloud->storage(r)->replica_trunk(t), nullptr);
    }
  }
}

TEST(ReplicationTest, WritesReachEveryInSyncReplica) {
  Cluster c = NewReplicatedCluster("write", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("v" + std::to_string(id))).ok());
  }
  const cloud::AddressingTable& table = c.cloud->table();
  for (CellId id = 0; id < 64; ++id) {
    const TrunkId t = c.cloud->TrunkOf(id);
    for (MachineId r : table.replicas_of_trunk(t)) {
      storage::MemoryTrunk* replica = c.cloud->storage(r)->replica_trunk(t);
      ASSERT_NE(replica, nullptr);
      std::string out;
      ASSERT_TRUE(replica->GetCell(id, &out).ok())
          << "cell " << id << " missing on replica machine " << r;
      EXPECT_EQ(out, "v" + std::to_string(id));
    }
  }
  // Removes and appends mirror too.
  ASSERT_TRUE(c.cloud->RemoveCell(7).ok());
  const TrunkId t7 = c.cloud->TrunkOf(7);
  for (MachineId r : table.replicas_of_trunk(t7)) {
    EXPECT_FALSE(c.cloud->storage(r)->replica_trunk(t7)->Contains(7));
  }
}

TEST(ReplicationTest, DegradedReadServedByReplicaWhilePrimaryDown) {
  Cluster c = NewReplicatedCluster("degraded", 2, /*with_tfs=*/false,
                                   /*auto_promote=*/false);
  const MachineId victim = 2;
  const CellId id = CellOwnedBy(c.cloud.get(), victim);
  ASSERT_TRUE(c.cloud->PutCell(id, Slice("survives")).ok());
  ASSERT_TRUE(c.cloud->FailMachine(victim).ok());

  // Reads fail over to a replica immediately — no promotion has run.
  std::string out;
  ASSERT_TRUE(c.cloud->GetCell(id, &out).ok())
      << "degraded read not served";
  EXPECT_EQ(out, "survives");
  bool exists = false;
  ASSERT_TRUE(c.cloud->Contains(id, &exists).ok());
  EXPECT_TRUE(exists);
  EXPECT_GE(c.cloud->recovery_stats().degraded_reads, 2u);
  EXPECT_EQ(c.cloud->table().machine_of_trunk(c.cloud->TrunkOf(id)), victim)
      << "promotion ran even though auto_promote is off";

  // Writes to the affected trunk stay retryable until promotion lands.
  Status ws = c.cloud->PutCell(id, Slice("blocked"));
  ASSERT_TRUE(ws.IsUnavailable()) << ws.message();

  // The sweep promotes; the same write then succeeds and the degraded value
  // was preserved through the metadata flip.
  cloud::MemoryCloud::SweepReport report;
  EXPECT_EQ(c.cloud->DetectAndRecover(&report), 1);
  ASSERT_EQ(report.recovered.size(), 1u);
  EXPECT_EQ(report.recovered[0], victim);
  ASSERT_TRUE(c.cloud->PutCell(id, Slice("after-promote")).ok());
  ASSERT_TRUE(c.cloud->GetCell(id, &out).ok());
  EXPECT_EQ(out, "after-promote");
}

TEST(ReplicationTest, PromotionIsMetadataOnlyZeroTfsReads) {
  Cluster c = NewReplicatedCluster("promote", 2, /*with_tfs=*/true);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("p" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(c.cloud->SaveSnapshot().ok());  // Cold tier exists but is idle.
  const MachineId victim = 1;
  ASSERT_TRUE(c.cloud->FailMachine(victim).ok());

  const tfs::Tfs::Stats before = c.tfs->stats();
  // First access promotes inline (auto_promote): a pure metadata flip.
  const CellId id = CellOwnedBy(c.cloud.get(), victim);
  ASSERT_TRUE(c.cloud->PutCell(id, Slice("rewritten")).ok());
  const tfs::Tfs::Stats after = c.tfs->stats();
  EXPECT_EQ(after.files_read, before.files_read)
      << "promotion hot path read from TFS";
  EXPECT_EQ(after.blocks_read, before.blocks_read);

  const net::RecoveryStats rs = c.cloud->recovery_stats();
  EXPECT_GT(rs.promotions, 0u);
  EXPECT_EQ(rs.tfs_fallback_reloads, 0u);
  EXPECT_GT(rs.last_promote_micros, 0u);

  // Every pre-failure value survived in memory.
  for (CellId i = 0; i < 64; ++i) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(i, &out).ok()) << "cell " << i;
    EXPECT_EQ(out, i == id ? "rewritten" : "p" + std::to_string(i));
  }
}

TEST(ReplicationTest, TfsColdTierUsedOnlyWhenEveryReplicaIsLost) {
  Cluster c = NewReplicatedCluster("coldtier", 1, /*with_tfs=*/true);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("c" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(c.cloud->SaveSnapshot().ok());
  // Pick a trunk and kill both its primary and its single replica.
  const TrunkId t = 0;
  const MachineId primary = c.cloud->table().machine_of_trunk(t);
  ASSERT_EQ(c.cloud->table().replicas_of_trunk(t).size(), 1u);
  const MachineId replica = c.cloud->table().replicas_of_trunk(t)[0];
  ASSERT_TRUE(c.cloud->FailMachine(primary).ok());
  ASSERT_TRUE(c.cloud->FailMachine(replica).ok());

  const tfs::Tfs::Stats before = c.tfs->stats();
  // The snapshot write above must already be metered in bytes.
  EXPECT_GT(before.bytes_written, 0u);
  cloud::MemoryCloud::SweepReport report;
  EXPECT_EQ(c.cloud->DetectAndRecover(&report), 2);
  const tfs::Tfs::Stats after = c.tfs->stats();
  EXPECT_GT(c.cloud->recovery_stats().tfs_fallback_reloads, 0u);
  EXPECT_GT(after.files_read, before.files_read)
      << "all-replicas-lost trunk was not reloaded from the cold tier";
  EXPECT_GT(after.bytes_read, before.bytes_read)
      << "trunk image reload did not meter bytes_read";
  EXPECT_EQ(after.bytes_read, c.tfs->stats().bytes_read);  // No read since.

  // Snapshot-covered data is back; every cell is readable somewhere.
  for (CellId id = 0; id < 64; ++id) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "c" + std::to_string(id));
  }
}

TEST(ReplicationTest, SweepReportSurfacesUnrecoverableMachines) {
  // k=1 and no TFS: losing a trunk's primary AND its only replica is
  // unrecoverable — the sweep must say so instead of discarding the error,
  // and must leave the machine down for the next sweep to retry.
  Cluster c = NewReplicatedCluster("report", 1, /*with_tfs=*/false);
  const TrunkId t = 0;
  const MachineId primary = c.cloud->table().machine_of_trunk(t);
  const MachineId replica = c.cloud->table().replicas_of_trunk(t)[0];
  ASSERT_TRUE(c.cloud->FailMachine(primary).ok());
  ASSERT_TRUE(c.cloud->FailMachine(replica).ok());

  cloud::MemoryCloud::SweepReport report;
  c.cloud->DetectAndRecover(&report);
  ASSERT_FALSE(report.failed.empty());
  bool found = false;
  for (const auto& [machine, status] : report.failed) {
    EXPECT_TRUE(status.IsUnavailable());
    EXPECT_NE(status.message().find("lost"), std::string::npos);
    if (machine == primary || machine == replica) found = true;
    EXPECT_FALSE(c.cloud->fabric().IsMachineUp(machine))
        << "failed machine not left down for retry";
  }
  EXPECT_TRUE(found);
  // The next sweep retries and reports the same terminal condition.
  cloud::MemoryCloud::SweepReport again;
  c.cloud->DetectAndRecover(&again);
  EXPECT_FALSE(again.failed.empty());
}

TEST(ReplicationTest, ReReplicationRestoresTheFactor) {
  Cluster c = NewReplicatedCluster("rerepl", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("r" + std::to_string(id))).ok());
  }
  const MachineId victim = 3;
  ASSERT_TRUE(c.cloud->FailMachine(victim).ok());
  cloud::MemoryCloud::SweepReport report;
  EXPECT_EQ(c.cloud->DetectAndRecover(&report), 1);
  EXPECT_GT(report.rereplicated_trunks, 0);

  // With 3 survivors, every trunk supports at most 2 holders beyond its
  // primary; the factor must be fully restored across them.
  const cloud::AddressingTable& table = c.cloud->table();
  for (TrunkId t = 0; t < table.num_slots(); ++t) {
    const MachineId primary = table.machine_of_trunk(t);
    EXPECT_NE(primary, victim);
    const auto& replicas = table.replicas_of_trunk(t);
    ASSERT_EQ(replicas.size(), 2u) << "trunk " << t << " under-replicated";
    std::set<MachineId> holders(replicas.begin(), replicas.end());
    holders.insert(primary);
    EXPECT_EQ(holders.size(), 3u) << "trunk " << t;
    EXPECT_EQ(holders.count(victim), 0u) << "trunk " << t;
    for (MachineId r : replicas) {
      storage::MemoryTrunk* replica = c.cloud->storage(r)->replica_trunk(t);
      ASSERT_NE(replica, nullptr) << "trunk " << t << " on " << r;
    }
  }
  const net::RecoveryStats rs = c.cloud->recovery_stats();
  EXPECT_GT(rs.trunks_rereplicated, 0u);
  EXPECT_GT(rs.bytes_rereplicated, 0u);
  EXPECT_GE(rs.last_full_replication_micros, rs.last_promote_micros);

  // The restored replicas are in sync: writes after repair reach them.
  ASSERT_TRUE(c.cloud->PutCell(1, Slice("post-repair")).ok());
  const TrunkId t1 = c.cloud->TrunkOf(1);
  for (MachineId r : table.replicas_of_trunk(t1)) {
    std::string out;
    ASSERT_TRUE(
        c.cloud->storage(r)->replica_trunk(t1)->GetCell(1, &out).ok());
    EXPECT_EQ(out, "post-repair");
  }
}

TEST(ReplicationTest, ReplicationSurvivesFaultyReplicationWire) {
  // Target exactly the replication handler range with injected failures:
  // acked writes must survive a later failover even when the replication
  // wire was flaky while they committed.
  Cluster c = NewReplicatedCluster("wire", 2, /*with_tfs=*/false);
  net::FaultInjector::Policy flaky;
  flaky.call_fail_prob = 0.2;
  flaky.call_timeout_prob = 0.1;
  c.injector->SetHandlerRangePolicy(cloud::kReplicaApplyHandler,
                                    cloud::kIsrShrinkHandler, flaky);
  std::set<CellId> acked;
  for (CellId id = 0; id < 128; ++id) {
    if (c.cloud->PutCell(id, Slice("w" + std::to_string(id))).ok()) {
      acked.insert(id);
    }
  }
  EXPECT_GT(acked.size(), 100u) << "retries should absorb most wire faults";
  c.injector->ClearPolicies();
  // Repair any ISR shrinks the faults caused, then fail a machine.
  c.cloud->DetectAndRecover();
  ASSERT_TRUE(c.cloud->FailMachine(0).ok());
  EXPECT_EQ(c.cloud->DetectAndRecover(), 1);
  for (CellId id : acked) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(id, &out).ok())
        << "acked cell " << id << " lost after failover";
    EXPECT_EQ(out, "w" + std::to_string(id));
  }
}

TEST(ReplicationTest, ReplicaMemoryAccountedSeparately) {
  Cluster c = NewReplicatedCluster("mem", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 256; ++id) {
    ASSERT_TRUE(
        c.cloud->PutCell(id, Slice(std::string(128, 'x'))).ok());
  }
  EXPECT_GT(c.cloud->ReplicaMemoryBytes(), 0u);
  // k=2: replicas hold two more copies of every byte the primaries hold.
  EXPECT_GE(c.cloud->ReplicaMemoryBytes(), c.cloud->MemoryFootprintBytes());
}

TEST(ReplicationTest, MigrationMovesPrimaryOffReplicaHolder) {
  Cluster c = NewReplicatedCluster("migrate", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 32; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("m" + std::to_string(id))).ok());
  }
  // Migrate a trunk onto one of its replica holders: the stale replica image
  // must be dropped and the machine must leave the in-sync set.
  const TrunkId t = 0;
  const MachineId dest = c.cloud->table().replicas_of_trunk(t)[0];
  ASSERT_TRUE(c.cloud->MigrateTrunk(t, dest).ok());
  EXPECT_EQ(c.cloud->table().machine_of_trunk(t), dest);
  const auto& replicas = c.cloud->table().replicas_of_trunk(t);
  EXPECT_EQ(std::find(replicas.begin(), replicas.end(), dest),
            replicas.end());
  EXPECT_EQ(c.cloud->storage(dest)->replica_trunk(t), nullptr);
  // Data still readable and writable through the new primary.
  for (CellId id = 0; id < 32; ++id) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(id, &out).ok());
    EXPECT_EQ(out, "m" + std::to_string(id));
  }
  ASSERT_TRUE(c.cloud->PutCell(0, Slice("post-migrate")).ok());
}

TEST(ReplicationTest, AuditFlagsReplicaDetachedBehindTheTable) {
  Cluster c = NewReplicatedCluster("audit", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("a" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(c.cloud->Audit().ok());
  const TrunkId t = 3;
  const MachineId holder = c.cloud->table().replicas_of_trunk(t)[0];
  ASSERT_TRUE(c.cloud->storage(holder)->DetachReplicaTrunk(t).ok());
  const Status s = c.cloud->Audit();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("trunk 3"), std::string::npos) << s.message();
}

// A diverged trunk's image is re-shipped to replicas still in its in-sync
// set while writers keep writing to it. No image may erase a write acked
// meanwhile, and each in-sync replica is re-synced in place (a concurrent
// apply or degraded read may be inside it), never swapped for a new trunk.
TEST(ReplicationTest, DivergedTrunkReshipKeepsConcurrentWrites) {
  Cluster c = NewReplicatedCluster("reship", 2, /*with_tfs=*/false);
  const TrunkId t = 5;
  std::vector<CellId> cells;  // Cells of trunk t; the last one is a probe.
  for (CellId id = 0; cells.size() < 9; ++id) {
    if (c.cloud->TrunkOf(id) == t) cells.push_back(id);
  }
  const CellId probe = cells.back();
  cells.pop_back();
  const std::vector<MachineId> isr = c.cloud->table().replicas_of_trunk(t);
  ASSERT_EQ(isr.size(), 2u);
  std::vector<storage::MemoryTrunk*> held;
  for (MachineId r : isr) held.push_back(c.cloud->storage(r)->replica_trunk(t));

  // Values carry the writer's round; a cell must end at its last acked
  // round or later (a later write may have applied without its ack). Each
  // phase sweeps until its writers are done, so their last writes race a
  // re-ship and no later write can hide one that a re-ship erased.
  constexpr int kPhases = 20;
  constexpr int kRounds = 100;
  std::vector<int> acked(cells.size(), -1);
  net::FaultInjector::Policy cut;
  cut.call_fail_prob = 1.0;
  std::string unacked;
  int sweep = 0;
  for (int phase = 0; phase < kPhases; ++phase) {
    std::atomic<int> writing{2};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        for (int round = phase * kRounds; round < (phase + 1) * kRounds;
             ++round) {
          for (std::size_t i = w; i < cells.size(); i += 2) {
            if (c.cloud->PutCell(cells[i], Slice(std::to_string(round)))
                    .ok()) {
              acked[i] = round;
            }
          }
        }
        writing.fetch_sub(1);
      });
    }
    while (writing.load() > 0) {
      // With every replica ship and shrink failing, a write applies on the
      // primary only, is not acked, and marks t diverged.
      unacked = std::to_string(sweep++);
      c.injector->SetHandlerRangePolicy(cloud::kReplicaApplyHandler,
                                        cloud::kIsrShrinkHandler, cut);
      EXPECT_FALSE(c.cloud->PutCell(probe, Slice(unacked)).ok());
      c.injector->ClearPolicies();
      c.cloud->ReReplicate();
    }
    for (std::thread& w : writers) w.join();
    const Status audit = c.cloud->Audit();
    ASSERT_TRUE(audit.ok()) << "phase " << phase << ": " << audit.ToString();
  }
  for (std::size_t k = 0; k < isr.size(); ++k) {
    EXPECT_EQ(c.cloud->storage(isr[k])->replica_trunk(t), held[k])
        << "in-sync replica on " << isr[k] << " was swapped out";
  }
  // Promote a replica: every acked write must have survived on it.
  ASSERT_TRUE(c.cloud->FailMachine(c.cloud->table().machine_of_trunk(t)).ok());
  c.cloud->DetectAndRecover();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(cells[i], &out).ok());
    EXPECT_GE(std::stoi(out), acked[i])
        << "acked write to cell " << cells[i] << " lost";
  }
  std::string out;
  ASSERT_TRUE(c.cloud->GetCell(probe, &out).ok());
  EXPECT_EQ(out, unacked) << "the re-ship did not carry the unacked write";
}

// A reader that found v down records the epoch it saw and requests
// promotion. If v is promoted away, restarted and re-replicated before the
// request lands, the request is stale: applying it would depose the healthy
// restarted machine and drop every replica it holds, so the next failure
// would lose the trunks whose only replica lived on v.
TEST(ReplicatedRecoveryTest, StalePromotionRequestAfterRestartIsIgnored) {
  Cluster c = NewReplicatedCluster("stale", 1, /*with_tfs=*/true);
  constexpr CellId kCells = 96;
  for (CellId id = 0; id < kCells; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("s" + std::to_string(id))).ok());
  }
  const MachineId v = 1;
  ASSERT_TRUE(c.cloud->FailMachine(v).ok());
  const std::uint64_t seen = c.cloud->epoch();  // The reader's observation.
  c.cloud->DetectAndRecover();
  const std::uint64_t before_restart = c.cloud->epoch();
  ASSERT_TRUE(c.cloud->RestartMachine(v).ok());
  EXPECT_GT(c.cloud->epoch(), before_restart) << "restart left the epoch";
  c.cloud->DetectAndRecover();  // Re-replicates onto the restarted v.
  ASSERT_TRUE(c.cloud->Audit().ok());
  const std::size_t held = c.cloud->storage(v)->replica_trunk_ids().size();
  ASSERT_GT(held, 0u) << "re-replication placed nothing on v";

  ASSERT_TRUE(c.cloud->RequestRecoveryForTest(v, seen).ok());
  ASSERT_NE(c.cloud->storage(v), nullptr) << "stale request deposed v";
  EXPECT_EQ(c.cloud->storage(v)->replica_trunk_ids().size(), held);
  int in_sync_on_v = 0;
  TrunkId replicated_on_v = -1;
  for (TrunkId t = 0; t < c.cloud->table().num_slots(); ++t) {
    for (MachineId r : c.cloud->table().replicas_of_trunk(t)) {
      if (r != v) continue;
      ++in_sync_on_v;
      replicated_on_v = t;
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(in_sync_on_v), held);
  ASSERT_TRUE(c.cloud->Audit().ok());

  // One more failure: the primary of a trunk whose only replica is on v.
  ASSERT_GE(replicated_on_v, 0);
  const MachineId next = c.cloud->table().machine_of_trunk(replicated_on_v);
  ASSERT_TRUE(c.cloud->FailMachine(next).ok());
  c.cloud->DetectAndRecover();
  int lost = 0;
  for (CellId id = 0; id < kCells; ++id) {
    std::string out;
    if (!c.cloud->GetCell(id, &out).ok() || out != "s" + std::to_string(id)) {
      ++lost;
    }
  }
  EXPECT_EQ(lost, 0) << "cells lost after the failure that followed";
  EXPECT_EQ(c.cloud->recovery_stats().tfs_fallback_reloads, 0u);
}

}  // namespace
}  // namespace trinity
