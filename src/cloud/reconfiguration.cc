// Reconfiguration: the one path through which membership and the primary
// addressing table change. Each failure, promotion or TFS reload, restart,
// migration commit, in-sync-set shrink and re-replication install/trim is
// one Change applied by Reconfigure under mu_. As in §6.2, recovery is the
// leader's job: on a miss, machine A "will wait for the addressing table to
// be updated, and attempt to access the item again" — routed misses and
// the heartbeat sweep only *request* recovery at the epoch they observed.

#include <algorithm>
#include <map>

#include "cloud/memory_cloud.h"
#include "common/serializer.h"

namespace trinity::cloud {

Status MemoryCloud::Reconfigure(const Change& change, bool* applied) {
  std::lock_guard<std::mutex> lock(mu_);
  // A request observed at an older epoch, or a miss whose target is up
  // again, describes a world that is gone: applying it could depose a
  // machine restarted in between. It does nothing; the caller re-syncs.
  const bool stale =
      (change.observed_epoch != 0 &&
       change.observed_epoch !=
           routing_stamp_.load(std::memory_order_acquire)) ||
      (change.on_miss && fabric_->IsMachineUp(change.machine));
  if (applied != nullptr) *applied = !stale;
  if (stale) return Status::OK();
  const MachineId m = change.machine;
  const std::uint64_t version = primary_table_.version();
  Status s;
  switch (change.kind) {
    case Change::Kind::kFail:
      if (m < 0 || m >= options_.num_slaves) {
        return Status::InvalidArgument("can only fail slaves");
      }
      fabric_->SetMachineDown(m);
      MarkDownLocked(m);
      machines_[m].storage.store(nullptr);  // RAM contents are gone.
      break;
    case Change::Kind::kRestart:
      if (m < 0 || m >= options_.num_slaves) {
        return Status::InvalidArgument("can only restart slaves");
      }
      if (alive_[m].load(std::memory_order_acquire)) {
        return Status::AlreadyExists("machine is up");
      }
      machines_[m].storage.store(
          std::make_shared<storage::MemoryStorage>(options_.storage),
          std::memory_order_release);
      machines_[m].table_replica = primary_table_;
      machines_[m].next_log_seq = 1;
      alive_[m].store(true, std::memory_order_release);
      // Up before the epoch bump below, so a miss that saw m down is stale.
      fabric_->SetMachineUp(m);
      RegisterHandlers(m);
      break;
    case Change::Kind::kCrash:
      // Unlike kFail the storage object stays: an injected crash can fire
      // mid-protocol while a caller (e.g. a vertex program) still holds
      // zero-copy slices into this machine's trunk memory. storage() hides
      // it, the fabric rejects its traffic, and recovery or restart
      // discards the stale image.
      MarkDownLocked(m);
      break;
    case Change::Kind::kRecover:
      if (options_.tfs == nullptr && !replicated()) {
        return Status::InvalidArgument("recovery requires TFS or replication");
      }
      if (alive_[m].load(std::memory_order_acquire)) {
        MarkDownLocked(m);
        // Without replicas a recovered machine is taken off the fabric.
        // With them, an endpoint that is still up but failed its heartbeats
        // is partitioned, not crashed: it is *deposed* (its trunks promote
        // away and every epoch bump fences its stale write path) but keeps
        // its endpoint and memory image, so split-brain stays observable.
        if (!replicated()) fabric_->SetMachineDown(m);
      }
      // A crashed machine's lingering image (see kCrash) is a ghost.
      if (!fabric_->IsMachineUp(m)) machines_[m].storage.store(nullptr);
      if (leader_ == m || !alive_[leader_].load(std::memory_order_acquire)) {
        s = ElectLeaderLocked();
      }
      if (s.ok()) {
        s = replicated() ? PromoteReplicasLocked(m) : ReloadFromTfsLocked(m);
      }
      break;
    case Change::Kind::kMigrate: {
      // The hand-off is void if the trunk changed hands meanwhile (say, a
      // promotion after the source crashed) or the destination died.
      if (primary_table_.machine_of_trunk(change.trunk) != change.peer ||
          LiveStorageOf(m) == nullptr) {
        return Status::Unavailable("trunk " + std::to_string(change.trunk) +
                                   " changed hands during migration");
      }
      // The source may have crashed after the hand-off (its copy died with
      // it); the commit still proceeds — the destination holds the only
      // live copy, the re-drive a leader performs for a half-finished move.
      if (auto from_store = LiveStorageOf(change.peer)) {
        Status ds = from_store->DetachTrunk(change.trunk);
        if (!ds.ok()) return ds;
      }
      // A replica image the destination held is superseded, and a machine
      // never appears in its own trunk's in-sync set.
      LiveStorageOf(m)->DetachReplicaTrunk(change.trunk);  // NotFound is fine.
      primary_table_.RemoveReplica(change.trunk, m);
      primary_table_.MoveTrunk(change.trunk, m);
      break;
    }
    case Change::Kind::kShrink:
      if (change.trunk < 0 || change.trunk >= primary_table_.num_slots()) {
        return Status::Corruption("ISR shrink trunk out of range");
      }
      if (primary_table_.machine_of_trunk(change.trunk) != change.peer ||
          change.trunk_epoch < primary_table_.epoch_of_trunk(change.trunk)) {
        // The caller was deposed: a promotion moved the trunk (bumping its
        // epoch) after the caller last synced. It must not be allowed to
        // establish ack authority by shrinking the in-sync set.
        recovery_stats_.Add(&net::RecoveryStats::fenced_writes, 1);
        return Status::Aborted("fenced: shrink from deposed primary",
                               Status::Subcode::kFenced);
      }
      primary_table_.RemoveReplica(change.trunk, m);
      break;
    case Change::Kind::kReplicate:
      InstallReplicasLocked(*change.installs);
      break;
  }
  // One epoch per applied request retires every routing snapshot built
  // before it. "An update to the primary table must be applied to the
  // persistent replica before committing" (§6.2): persist, then broadcast.
  routing_stamp_.fetch_add(1, std::memory_order_acq_rel);
  if (primary_table_.version() != version) {
    if (primary_table_.version() != persisted_version_) {
      Status ps = PersistTableLocked();
      if (!ps.ok()) return ps;
    }
    BroadcastTableLocked();
  }
  return s;
}

Status MemoryCloud::RequestRecovery(MachineId dst,
                                    std::uint64_t observed_epoch) {
  return Reconfigure({.kind = Change::Kind::kRecover,
                      .machine = dst,
                      .observed_epoch = observed_epoch,
                      .on_miss = true});
}

void MemoryCloud::MarkDownLocked(MachineId m) {
  alive_[m].store(false, std::memory_order_release);
  if (m >= options_.num_slaves) return;  // Proxies/client carry no state.
  // The logs it held as backup died with it. They may have been the only
  // copies protecting other primaries' recent writes, so (with buffered
  // logging) the next recovery snapshot re-protects them.
  machines_[m].backup_logs.clear();
  if (options_.buffered_logging) reprotect_pending_ = true;
}

Status MemoryCloud::ReloadFromTfsLocked(MachineId failed) {
  const std::vector<MachineId> targets = AliveSlavesLocked();
  if (targets.empty()) return Status::Unavailable("no recovery targets");
  const std::vector<TrunkId> trunks = primary_table_.trunks_of(failed);
  if (!trunks.empty()) {
    // "During recovery, the leader reloads data owned by the failed machine
    // to other alive machines, updates the primary addressing table and
    // broadcasts it" (§6.2).
    std::size_t next = 0;
    for (TrunkId t : trunks) {
      Status s = ReloadTrunkLocked(t, targets[next++ % targets.size()]);
      if (!s.ok()) return s;
    }
    ReplayBackupLogsLocked(failed);
  } else if (!reprotect_pending_) {
    return Status::OK();
  }
  // Re-protect the survivors: the failed machine may have held the only
  // backup log copies for other primaries, and those records died with it
  // (a trunkless machine can die holding logs too: it was restarted empty
  // after an earlier failure, yet served as backup). Cutting a fresh
  // snapshot (which also persists the table) restores full durability —
  // the equivalent of RAMCloud re-replicating a dead backup's log
  // segments. Unavailable means another machine is down with trunks still
  // unassigned; its recovery will cut the snapshot.
  Status s = SnapshotAllLocked();
  return s.IsUnavailable() ? Status::OK() : s;
}

Status MemoryCloud::ReloadTrunkLocked(TrunkId t, MachineId target) {
  auto store = StorageOf(target);
  if (store == nullptr) {
    return Status::Unavailable("recovery target lost its storage");
  }
  // Trunks load from the last *committed* snapshot epoch (a half-written
  // staging epoch is invisible here); a never-snapshotted trunk restarts
  // empty so the cluster keeps serving.
  std::unique_ptr<storage::MemoryTrunk> trunk;
  Status s = snapshot_epoch_ == 0
                 ? Status::NotFound("no committed snapshot")
                 : storage::MemoryStorage::LoadTrunkFromTfs(
                       options_.tfs,
                       options_.tfs_prefix + "/snap_" +
                           std::to_string(snapshot_epoch_),
                       t, options_.storage.trunk, &trunk);
  if (s.IsNotFound()) s = storage::MemoryTrunk::Create(options_.storage.trunk,
                                                       &trunk);
  if (!s.ok()) return s;
  // A stale (not in-sync) replica image is superseded by the reload.
  if (store->replica_trunk(t) != nullptr) store->DetachReplicaTrunk(t);
  s = store->AttachTrunk(t, std::move(trunk));
  if (!s.ok()) return s;
  primary_table_.MoveTrunk(t, target);
  primary_table_.RemoveReplica(t, target);
  return Status::OK();
}

Status MemoryCloud::PromoteReplicasLocked(MachineId failed) {
  // The failed machine's replica trunks are ghosts (crash) or unreachable
  // behind a partition; drop it from every in-sync set.
  primary_table_.RemoveReplicaEverywhere(failed);
  const std::vector<TrunkId> owned = primary_table_.trunks_of(failed);
  if (owned.empty()) return Status::OK();
  const std::vector<MachineId> survivors = AliveSlavesLocked();
  if (survivors.empty()) return Status::Unavailable("no alive slaves");
  int promoted = 0;
  int reloaded = 0;
  std::size_t rr = 0;
  for (TrunkId t : owned) {
    const std::vector<MachineId>& isr = primary_table_.replicas_of_trunk(t);
    const auto it = std::find_if(isr.begin(), isr.end(), [&](MachineId r) {
      auto store = LiveStorageOf(r);
      return store != nullptr && store->replica_trunk(t) != nullptr;
    });
    if (it != isr.end()) {
      // The hot path: an O(1) ownership flip. No trunk bytes move and no
      // TFS file is read — the acceptance criterion the chaos tests assert
      // via the TFS read counters.
      const MachineId target = *it;
      Status s = StorageOf(target)->PromoteReplicaTrunk(t);
      if (!s.ok()) return s;
      primary_table_.MoveTrunk(t, target);  // Bumps the fencing epoch.
      primary_table_.RemoveReplica(t, target);  // Promoted: now primary.
      ++promoted;
      continue;
    }
    // Every in-memory replica of this trunk died with its primary — the
    // one case where the TFS cold tier is consulted.
    if (options_.tfs == nullptr) {
      return Status::Unavailable("trunk " + std::to_string(t) +
                                 " lost: all replicas dead and no TFS "
                                 "cold tier configured");
    }
    Status s = ReloadTrunkLocked(t, survivors[rr++ % survivors.size()]);
    if (!s.ok()) return s;
    ++reloaded;
  }
  // Simulated time-to-promote: per-trunk metadata flips plus the broadcast
  // fan-out, charged to the leader so the cost model sees the stall. Cold
  // reloads are orders of magnitude slower (disk + deserialize).
  const double promote_micros = 10.0 * static_cast<double>(owned.size()) +
                                5.0 * static_cast<double>(survivors.size()) +
                                500.0 * static_cast<double>(reloaded);
  fabric_->AddCpuMicros(leader_, promote_micros);
  recovery_stats_.Add(&net::RecoveryStats::promotions, promoted);
  recovery_stats_.Add(&net::RecoveryStats::tfs_fallback_reloads, reloaded);
  recovery_stats_.Store(&net::RecoveryStats::last_promote_micros,
                        static_cast<std::uint64_t>(promote_micros));
  // Until re-replication runs, promotion is all the recovery there is.
  recovery_stats_.Store(&net::RecoveryStats::last_full_replication_micros,
                        static_cast<std::uint64_t>(promote_micros));
  return Status::OK();
}

void MemoryCloud::InstallReplicasLocked(std::vector<ReplicaInstall>& installs) {
  int installed = 0;
  std::uint64_t shipped_bytes = 0;
  std::map<MachineId, double> per_target_micros;
  for (ReplicaInstall& job : installs) {
    // Commit only if the world did not shift underneath the transfer (an
    // injected crash during the ship can trigger promotions).
    job.installed =
        job.shipped_bytes > 0 &&
        primary_table_.machine_of_trunk(job.trunk) == job.primary &&
        alive_[job.target].load(std::memory_order_acquire);
    if (!job.installed) {
      if (job.resync) diverged_.insert(job.trunk);  // The next sweep retries.
      continue;
    }
    primary_table_.AddReplica(job.trunk, job.target);
    ++installed;
    shipped_bytes += job.shipped_bytes;
    per_target_micros[job.target] +=
        50.0 + static_cast<double>(job.shipped_bytes) * 0.001;
  }
  if (installed > 0) {
    recovery_stats_.Add(&net::RecoveryStats::trunks_rereplicated, installed);
    recovery_stats_.Add(&net::RecoveryStats::bytes_rereplicated,
                        shipped_bytes);
    // Modeled wall time of the parallel transfer: each destination installs
    // its images serially, destinations proceed in parallel — the slowest
    // destination bounds time-to-full-replication.
    double slowest = 0;
    for (const auto& entry : per_target_micros) {
      slowest = std::max(slowest, entry.second);
    }
    recovery_stats_.Store(
        &net::RecoveryStats::last_full_replication_micros,
        recovery_stats_.Snapshot().last_promote_micros +
            static_cast<std::uint64_t>(slowest));
  }
  // Convergence: once a trunk's desired placement is fully in sync, holders
  // outside it (membership-churn leftovers, e.g. after failback or a trunk
  // migration) are detached so the factor is exactly k — bounding replica
  // memory and write fan-out. A trunk with a missing install keeps its
  // surplus stand-ins; trimming never drops the copy count below target.
  const std::vector<MachineId> alive = AliveSlavesLocked();
  for (TrunkId t = 0; alive.size() >= 2 && t < primary_table_.num_slots();
       ++t) {
    if (LiveStorageOf(primary_table_.machine_of_trunk(t)) == nullptr) continue;
    std::vector<MachineId> missing;
    const std::vector<MachineId> want =
        WantedReplicasLocked(t, alive, &missing);
    if (!missing.empty()) continue;
    // Copied: RemoveReplica below mutates the table's vector.
    const std::vector<MachineId> have = primary_table_.replicas_of_trunk(t);
    for (MachineId h : have) {
      if (std::find(want.begin(), want.end(), h) != want.end()) continue;
      primary_table_.RemoveReplica(t, h);
      if (auto holder = LiveStorageOf(h)) holder->DetachReplicaTrunk(t);
    }
  }
}

Status MemoryCloud::PersistTableLocked() {
  if (options_.tfs == nullptr) return Status::OK();
  Status s = options_.tfs->WriteFile(options_.tfs_prefix + "/addressing_table",
                                     Slice(primary_table_.Serialize()));
  if (s.ok()) persisted_version_ = primary_table_.version();
  return s;
}

void MemoryCloud::BroadcastTableLocked() {
  // Direct replica installs that also rebuild the receivers' routing views,
  // so their fast paths resume at once. Machines the broadcast skips (dead
  // ones) re-sync on their first failed access after a restart.
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    if (m != leader_ && !alive_[m].load(std::memory_order_acquire)) continue;
    machines_[m].table_replica = primary_table_;
    RefreshRoutingLocked(m);
  }
  primary_routing_.store(BuildRoutingView(primary_table_),
                         std::memory_order_release);
}

std::vector<MachineId> MemoryCloud::AliveSlavesLocked() const {
  std::vector<MachineId> result;
  for (int m = 0; m < options_.num_slaves; ++m) {
    if (alive_[m].load(std::memory_order_acquire)) result.push_back(m);
  }
  return result;
}

Status MemoryCloud::ElectLeader() {
  std::lock_guard<std::mutex> lock(mu_);
  return ElectLeaderLocked();
}

Status MemoryCloud::ElectLeaderLocked() {
  const std::vector<MachineId> alive = AliveSlavesLocked();
  if (alive.empty()) return Status::Unavailable("no alive slaves");
  const MachineId candidate = alive.front();
  if (options_.tfs != nullptr) {
    // Fence through TFS so two partitions cannot both elect a leader
    // (§6.2: "the new leader marks a flag on the shared distributed
    // fault-tolerant file system"). An epoch whose flag exists belongs to
    // someone else; the leader is elected only once it owns its flag.
    Status s;
    do {
      ++leader_epoch_;
      s = options_.tfs->CreateExclusive(
          LeaderFlagPrefix() + std::to_string(leader_epoch_),
          Slice(std::to_string(candidate)));
    } while (s.IsAlreadyExists());
    if (!s.ok()) return s;
  }
  leader_ = candidate;
  return Status::OK();
}

int MemoryCloud::DetectAndRecover(SweepReport* report) {
  int recovered = 0;
  // Requests the recovery of `target` (the leader when kInvalidMachine) if
  // `failed(m, leader)` observes it failed, stamped with the epoch read
  // before that observation. A stale request — a concurrent promotion or
  // restart moved the membership since — observes again, a bounded number
  // of times.
  const auto sweep = [&](MachineId target, const auto& failed) {
    const int attempts = std::max(1, options_.retry.max_attempts);
    MachineId m = target;
    for (int i = 0; i < attempts; ++i) {
      std::uint64_t epoch;
      MachineId leader;
      {
        std::lock_guard<std::mutex> lock(mu_);
        epoch = routing_stamp_.load(std::memory_order_acquire);
        leader = leader_;
      }
      m = target == kInvalidMachine ? leader : target;
      if (!failed(m, leader)) return;
      bool applied = false;
      const Status rs = Reconfigure({.kind = Change::Kind::kRecover,
                                     .machine = m,
                                     .observed_epoch = epoch},
                                    &applied);
      if (!applied) continue;
      if (rs.ok()) ++recovered;
      // A machine whose recovery failed stays marked down (recovery marks
      // it down before any fallible work), so the next sweep retries it.
      if (report != nullptr && rs.ok()) report->recovered.push_back(m);
      if (report != nullptr && !rs.ok()) report->failed.emplace_back(m, rs);
      return;
    }
    // Every observation was overtaken by a concurrent change: surface it;
    // the next sweep observes afresh.
    if (report != nullptr) {
      report->failed.emplace_back(
          m, Status::Unavailable("recovery request stale after " +
                                 std::to_string(attempts) + " observations"));
    }
  };
  // A dead leader cannot probe anyone (the fabric rejects traffic from down
  // machines), so first recover the leader itself — which elects a live
  // successor — before sweeping the cluster with heartbeats.
  sweep(kInvalidMachine, [&](MachineId leader, MachineId) {
    return !fabric_->IsMachineUp(leader);
  });
  for (MachineId target = 0; target < options_.num_slaves; ++target) {
    sweep(target, [&](MachineId m, MachineId leader) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        // Known dead and handled: it owns no trunks and its death took no
        // backup-log copies that still await re-protection.
        if (!alive_[m].load(std::memory_order_acquire) &&
            primary_table_.trunks_of(m).empty() && !reprotect_pending_) {
          return false;
        }
      }
      // Heartbeat from the leader (§6.2: "Trinity uses heartbeat messages
      // to proactively detect machine failures"). Retried under the same
      // policy as routing: a single injected call failure or lost response
      // must not condemn a healthy machine to a (costly) false recovery.
      const RetryPolicy::RunHooks hooks =
          ChargedTo(leader, Mix64(static_cast<std::uint64_t>(m) + 3));
      const Status s = options_.retry.Run(hooks, [&](int) -> Status {
        std::string pong;
        return fabric_->Call(leader, m, kHeartbeatHandler, Slice(), &pong);
      });
      return s.IsRetryable();
    });
  }
  // Background repair: restore the replication factor across the survivors
  // once promotions have drained.
  if (replicated()) {
    const int repaired = ReReplicate();
    if (report != nullptr) report->rereplicated_trunks = repaired;
  }
  return recovered;
}

Status MemoryCloud::MigrateTrunk(TrunkId trunk, MachineId to) {
  MachineId from;
  std::shared_ptr<storage::MemoryStorage> from_store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (trunk < 0 || trunk >= primary_table_.num_slots()) {
      return Status::InvalidArgument("trunk out of range");
    }
    if (LiveStorageOf(to) == nullptr) {
      return Status::InvalidArgument("destination is not an alive slave");
    }
    from = primary_table_.machine_of_trunk(trunk);
    if (from == to) return Status::OK();
    from_store = LiveStorageOf(from);
    if (from_store == nullptr) {
      return Status::Unavailable("source machine is down");
    }
  }
  // 1. Serialize the trunk at the source (metered as its CPU work).
  storage::MemoryTrunk* source = from_store->trunk(trunk);
  if (source == nullptr) return Status::NotFound("trunk not hosted at source");
  std::string image;
  {
    net::Fabric::MeterScope meter(*fabric_, from);
    Status s = source->Serialize(&image);
    if (!s.ok()) return s;
  }
  // 2. Ship the image to the destination over the fabric.
  BinaryWriter writer;
  writer.PutI32(trunk);
  writer.PutBytes(Slice(image));
  std::string unused;
  Status s = fabric_->Call(from, to, kTrunkMigrateHandler,
                           Slice(writer.buffer()), &unused);
  if (s.ok() && !fabric_->IsMachineUp(to)) {
    s = Status::Unavailable("destination crashed during trunk migration");
  }
  // 3. Commit: the source drops its copy and the table names the new owner.
  if (s.ok()) {
    s = Reconfigure({.kind = Change::Kind::kMigrate,
                     .machine = to,
                     .trunk = trunk,
                     .peer = from});
  }
  if (!s.ok()) {
    // Roll back an uncommitted hand-off: if the destination attached the
    // image before the failure surfaced, detach it so exactly one copy
    // stays authoritative.
    std::lock_guard<std::mutex> lock(mu_);
    auto to_store = LiveStorageOf(to);
    if (primary_table_.machine_of_trunk(trunk) != to && to_store != nullptr) {
      to_store->DetachTrunk(trunk);  // NotFound is fine.
    }
  }
  return s;
}

int MemoryCloud::RebalanceTrunks() {
  int moved = 0;
  for (;;) {
    TrunkId candidate = -1;
    MachineId from = kInvalidMachine, to = kInvalidMachine;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Find the most- and least-loaded alive slaves.
      std::size_t max_count = 0, min_count = ~std::size_t{0};
      for (MachineId m = 0; m < options_.num_slaves; ++m) {
        if (LiveStorageOf(m) == nullptr) continue;
        const std::size_t count = primary_table_.trunks_of(m).size();
        if (count > max_count) {
          max_count = count;
          from = m;
        }
        if (count < min_count) {
          min_count = count;
          to = m;
        }
      }
      if (from == kInvalidMachine || to == kInvalidMachine ||
          max_count <= min_count + 1) {
        break;  // Balanced within one trunk.
      }
      candidate = primary_table_.trunks_of(from).front();
    }
    if (!MigrateTrunk(candidate, to).ok()) break;
    ++moved;
  }
  return moved;
}

Status MemoryCloud::Audit() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (TrunkId t = 0; t < primary_table_.num_slots(); ++t) {
    const auto fail = [t](const std::string& what) {
      return Status::Corruption("audit: trunk " + std::to_string(t) + " " +
                                what);
    };
    const MachineId owner = primary_table_.machine_of_trunk(t);
    const auto owner_store = LiveStorageOf(owner);
    storage::MemoryTrunk* primary =
        owner_store == nullptr ? nullptr : owner_store->trunk(t);
    if (primary == nullptr) {
      return fail("owner " + std::to_string(owner) +
                  " is not a live slave hosting it");
    }
    for (MachineId m = 0; m < options_.num_slaves; ++m) {
      const auto store = LiveStorageOf(m);
      if (m != owner && store != nullptr && store->trunk(t) != nullptr) {
        return fail("has a second owner " + std::to_string(m));
      }
    }
    for (MachineId r : primary_table_.replicas_of_trunk(t)) {
      const auto store = LiveStorageOf(r);
      storage::MemoryTrunk* replica =
          r == owner || store == nullptr ? nullptr : store->replica_trunk(t);
      if (replica == nullptr) {
        return fail("in-sync replica " + std::to_string(r) +
                    " is not a live non-owner holding a replica trunk");
      }
      bool equal = replica->cell_count() == primary->cell_count();
      const std::vector<CellId> ids = primary->CellIds();
      for (std::size_t i = 0; equal && i < ids.size(); ++i) {
        std::string want, got;
        equal = primary->GetCell(ids[i], &want).ok() &&
                replica->GetCell(ids[i], &got).ok() && want == got;
      }
      if (!equal) {
        return fail("replica on " + std::to_string(r) +
                    " differs from its primary");
      }
    }
  }
  return Status::OK();
}

}  // namespace trinity::cloud
