// Replication and logging: the synchronous primary → replica write path,
// degraded replica reads, leader-confirmed in-sync-set shrinks, RAMCloud-
// style buffered logging, crash-safe snapshots, and re-replication. Every
// table change these paths need (shrink, install, trim) is a request to the
// reconfiguration entry (reconfiguration.cc).

#include <algorithm>

#include "cloud/cell_stripes.h"
#include "cloud/memory_cloud.h"
#include "cloud/replica_placement.h"
#include "common/serializer.h"
#include "common/threadpool.h"

namespace trinity::cloud {

void MemoryCloud::RegisterReplicationHandlers(MachineId m) {
  fabric_->RegisterSyncHandler(
      m, kLogRecordHandler,
      [this, m](MachineId src, Slice request, std::string*) {
        BinaryReader reader(request);
        LogRecord record;
        std::uint8_t op = 0;
        Slice payload;
        if (!reader.GetU64(&record.seq) || !reader.GetU8(&op) ||
            !reader.GetU64(&record.id) || !reader.GetBytes(&payload)) {
          return Status::Corruption("bad log record");
        }
        record.op = static_cast<CellOp>(op);
        record.payload = payload.ToString();
        std::lock_guard<std::mutex> lock(mu_);
        machines_[m].backup_logs[src].push_back(std::move(record));
        return Status::OK();
      });
  fabric_->RegisterSyncHandler(
      m, kReplicaInstallHandler,
      [this, m](MachineId, Slice request, std::string*) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        Slice image;
        if (!reader.GetI32(&trunk_id) || !reader.GetBytes(&image)) {
          return Status::Corruption("bad replica install request");
        }
        std::unique_ptr<storage::MemoryTrunk> trunk;
        Status s = storage::MemoryTrunk::Deserialize(
            image, options_.storage.trunk, &trunk);
        if (!s.ok()) return s;
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        // An in-sync replica re-synced after divergence is overwritten in
        // place (see MemoryStorage::AttachReplicaTrunk).
        return store->AttachReplicaTrunk(trunk_id, std::move(trunk));
      });
  fabric_->RegisterSyncHandler(
      m, kTrunkMigrateHandler,
      [this, m](MachineId, Slice request, std::string*) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        Slice image;
        if (!reader.GetI32(&trunk_id) || !reader.GetBytes(&image)) {
          return Status::Corruption("bad trunk migration request");
        }
        std::unique_ptr<storage::MemoryTrunk> trunk;
        Status s = storage::MemoryTrunk::Deserialize(
            image, options_.storage.trunk, &trunk);
        if (!s.ok()) return s;
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        return store->AttachTrunk(trunk_id, std::move(trunk));
      });
  fabric_->RegisterSyncHandler(
      m, kReplicaApplyHandler,
      [this, m](MachineId, Slice request, std::string*) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        std::uint64_t epoch = 0;
        std::uint8_t op = 0;
        CellId id = 0;
        Slice payload;
        if (!reader.GetI32(&trunk_id) || !reader.GetU64(&epoch) ||
            !reader.GetU8(&op) || !reader.GetU64(&id) ||
            !reader.GetBytes(&payload)) {
          return Status::Corruption("bad replica apply request");
        }
        {
          // Fencing: a mutation stamped with an epoch older than this
          // machine's view of the trunk's fencing token comes from a
          // primary that was deposed by a promotion it never heard about.
          // Aborted is terminal for the sender — the write is never acked.
          std::lock_guard<std::mutex> lock(mu_);
          if (trunk_id < 0 ||
              trunk_id >= machines_[m].table_replica.num_slots()) {
            return Status::Corruption("replica apply trunk out of range");
          }
          if (epoch < machines_[m].table_replica.epoch_of_trunk(trunk_id)) {
            recovery_stats_.Add(&net::RecoveryStats::fenced_writes, 1);
            return Status::Aborted(
                "fenced: replication epoch " + std::to_string(epoch) +
                    " is stale for trunk " + std::to_string(trunk_id),
                Status::Subcode::kFenced);
          }
        }
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        storage::MemoryTrunk* replica = store->replica_trunk(trunk_id);
        if (replica == nullptr) {
          return Status::Unavailable("no replica trunk hosted");
        }
        return Mirror(replica, static_cast<CellOp>(op), id, payload);
      });
  fabric_->RegisterSyncHandler(
      m, kReplicaReadHandler,
      [this, m](MachineId, Slice request, std::string* response) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        std::uint8_t op = 0;
        CellId id = 0;
        if (!reader.GetI32(&trunk_id) || !reader.GetU8(&op) ||
            !reader.GetU64(&id)) {
          return Status::Corruption("bad replica read request");
        }
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        storage::MemoryTrunk* replica = store->replica_trunk(trunk_id);
        if (replica == nullptr) {
          return Status::Unavailable("no replica trunk hosted");
        }
        switch (static_cast<CellOp>(op)) {
          case CellOp::kGet:
            if (response == nullptr) {
              return Status::InvalidArgument("no response");
            }
            return replica->GetCell(id, response);
          case CellOp::kContains:
            return replica->Contains(id) ? Status::OK()
                                         : Status::NotFound("");
          default:
            return Status::InvalidArgument("mutating replica read");
        }
      });
  fabric_->RegisterSyncHandler(
      m, kIsrShrinkHandler,
      [this, m](MachineId src, Slice request, std::string*) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        std::uint64_t epoch = 0;
        std::int32_t replica = 0;
        if (!reader.GetI32(&trunk_id) || !reader.GetU64(&epoch) ||
            !reader.GetI32(&replica)) {
          return Status::Corruption("bad ISR shrink request");
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (m != leader_) {
            // Caller's leader view is stale; retryable once it re-learns.
            return Status::Unavailable("not the leader");
          }
        }
        return Reconfigure({.kind = Change::Kind::kShrink,
                            .machine = replica,
                            .trunk = trunk_id,
                            .peer = src,
                            .trunk_epoch = epoch});
      });
}

Status MemoryCloud::ReplicateMutation(MachineId primary, CellOp op, CellId id,
                                      Slice payload) {
  const TrunkId t = TrunkOf(id);
  std::uint64_t epoch = 0;
  std::vector<MachineId> replicas;
  {
    // The primary's *own* table replica drives its write path. This is the
    // fencing linchpin: a deposed primary (partitioned away before a
    // promotion it never heard about) still advertises its old epoch and
    // still targets its old in-sync set, so its traffic reaches a machine
    // holding a newer table and dies with Aborted — it cannot consult some
    // post-promotion global state and quietly ack against an empty set.
    std::lock_guard<std::mutex> lock(mu_);
    epoch = machines_[primary].table_replica.epoch_of_trunk(t);
    replicas = machines_[primary].table_replica.replicas_of_trunk(t);
  }
  BinaryWriter writer;
  writer.PutI32(t);
  writer.PutU64(epoch);
  writer.PutU8(static_cast<std::uint8_t>(op));
  writer.PutU64(id);
  writer.PutBytes(payload);
  Status result;
  for (MachineId r : replicas) {
    RetryPolicy::RunHooks hooks =
        ChargedTo(primary,
                  Mix64(id) ^ Mix64(static_cast<std::uint64_t>(r) + 1));
    // Dead replica — shrink it out of the in-sync set, don't retry.
    hooks.keep_trying = [&] { return fabric_->IsMachineUp(r); };
    Status s = options_.retry.Run(hooks, [&](int) -> Status {
      std::string unused;
      Status as = fabric_->Call(primary, r, kReplicaApplyHandler,
                                Slice(writer.buffer()), &unused);
      if (as.ok() && !fabric_->IsMachineUp(r)) {
        // The replica crashed right after applying; its copy is a ghost
        // and protects nothing.
        as = Status::Unavailable("replica crashed after apply");
      }
      return as;
    });
    if (s.ok()) continue;  // Replicated.
    if (s.IsAborted()) {
      // The replica holds a newer fencing epoch: we were deposed. Terminal.
      result = Status::Aborted("fenced: trunk " + std::to_string(t) +
                                   " has a newer primary (" + s.message() +
                                   ")",
                               Status::Subcode::kFenced);
      break;
    }
    // Replica dead or unreachable. Ask the current leader to shrink it out
    // of the in-sync set before acking without it — the leader knows the
    // real epoch, so a deposed primary is fenced on this path too. With no
    // confirmation (leader unreachable / partitioned), acking a write the
    // in-sync set did not see could lose it at the next promotion.
    Status cs = ConfirmShrink(primary, t, epoch, r);
    if (!cs.ok()) {
      result = cs.IsAborted()
                   ? cs
                   : Status::Unavailable("replica " + std::to_string(r) +
                                         " unreachable and in-sync shrink "
                                         "unconfirmed: " + cs.message());
      break;
    }
  }
  if (result.ok() && !fabric_->IsMachineUp(primary)) {
    // Injected crash took the primary down mid-replication; its local apply
    // is a ghost image that the promotion path discards.
    result = Status::Unavailable("primary crashed during replication");
  }
  if (!result.ok()) {
    // The write is applied on the primary (reads there see it) but some
    // in-sync replica may lack it: the next sweep re-ships the trunk's
    // image to its whole in-sync set.
    std::lock_guard<std::mutex> lock(mu_);
    diverged_.insert(t);
  }
  return result;
}

Status MemoryCloud::ConfirmShrink(MachineId primary, TrunkId trunk,
                                  std::uint64_t epoch, MachineId replica) {
  BinaryWriter writer;
  writer.PutI32(trunk);
  writer.PutU64(epoch);
  writer.PutI32(replica);
  const RetryPolicy::RunHooks hooks =
      ChargedTo(primary, Mix64(static_cast<std::uint64_t>(trunk)) ^
                             Mix64(static_cast<std::uint64_t>(replica) + 2));
  return options_.retry.Run(hooks, [&](int) -> Status {
    MachineId leader;
    {
      std::lock_guard<std::mutex> lock(mu_);
      leader = leader_;
    }
    // Self-calls (primary == leader) still route through the fabric and
    // run the same fencing check, keeping one code path.
    std::string unused;
    return fabric_->Call(primary, leader, kIsrShrinkHandler,
                         Slice(writer.buffer()), &unused);
  });
}

Status MemoryCloud::TryReplicaRead(MachineId src, CellOp op, CellId id,
                                   std::string* response, bool* served,
                                   CallContext* ctx) {
  *served = false;
  const TrunkId t = TrunkOf(id);
  std::vector<MachineId> replicas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    replicas = primary_table_.replicas_of_trunk(t);
  }
  BinaryWriter writer;
  writer.PutI32(t);
  writer.PutU8(static_cast<std::uint8_t>(op));
  writer.PutU64(id);
  for (MachineId r : replicas) {
    if (!fabric_->IsMachineUp(r)) continue;
    std::string resp;
    Status s = fabric_->Call(src, r, kReplicaReadHandler,
                             Slice(writer.buffer()), &resp, ctx);
    if (s.IsRetryable()) continue;  // Next replica.
    // Definitive answer (OK / NotFound / error): the read was served.
    *served = true;
    recovery_stats_.Add(&net::RecoveryStats::degraded_reads, 1);
    if (s.ok() && response != nullptr) *response = std::move(resp);
    return s;
  }
  return Status::Unavailable("no in-sync replica served the read");
}

bool MemoryCloud::LogToBackup(MachineId primary, CellOp op, CellId id,
                              Slice payload) {
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = machines_[primary].next_log_seq++;
  }
  BinaryWriter writer;
  writer.PutU64(seq);
  writer.PutU8(static_cast<std::uint8_t>(op));
  writer.PutU64(id);
  writer.PutBytes(payload);
  // Synchronous: the record must reach *some* backup's memory before the
  // mutation commits locally (RAMCloud buffered logging). A backup crashing
  // mid-call or a transient injected failure must not leave the mutation
  // unlogged — that is exactly the window where an acknowledged write could
  // be lost — so keep trying surviving backups, up to twice around the
  // cluster at a flat backoff. BackupOf re-evaluates liveness on every
  // attempt, skipping backups that just died.
  RetryPolicy policy = options_.retry;
  policy.max_attempts = 2 * options_.num_slaves;
  policy.backoff_multiplier = 1.0;
  policy.jitter_fraction = 0.0;
  RetryPolicy::RunHooks hooks = ChargedTo(primary);
  hooks.keep_trying = [&] { return BackupOf(primary) != kInvalidMachine; };
  const Status logged = policy.Run(hooks, [&](int) -> Status {
    const MachineId backup = BackupOf(primary);
    if (backup == kInvalidMachine) {
      return Status::Unavailable("no surviving backup");
    }
    std::string unused;
    Status s = fabric_->Call(primary, backup, kLogRecordHandler,
                             Slice(writer.buffer()), &unused);
    // The backup may have crashed the instant after buffering the record
    // (its log died with it); an ack from a now-dead backup protects
    // nothing, so re-log to the next survivor.
    if (s.ok() && !fabric_->IsMachineUp(backup)) {
      return Status::Unavailable("backup died holding the record");
    }
    return s;
  });
  if (logged.ok()) return true;
  // Retries exhausted (or no backup exists). If the primary is still up the
  // write stays durable-in-RAM under the best-effort semantics of a cluster
  // with no reachable backup; but if an injected crash took the primary down
  // *mid-logging*, the record protects nothing and the ack must not go out.
  return fabric_->IsMachineUp(primary);
}

MachineId MemoryCloud::BackupOf(MachineId m) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (int step = 1; step < options_.num_slaves; ++step) {
    const MachineId candidate = (m + step) % options_.num_slaves;
    if (alive_[candidate].load(std::memory_order_acquire)) return candidate;
  }
  return kInvalidMachine;
}

void MemoryCloud::ReplayBackupLogsLocked(MachineId failed) {
  // Replay buffered log records held for the failed primary. Records may be
  // spread over several backups (the backup choice follows liveness) and a
  // retried log call can deposit the same record twice, so gather them all,
  // order by sequence number and replay each seq exactly once.
  std::vector<LogRecord> replay;
  for (int m = 0; m < options_.num_slaves; ++m) {
    if (!alive_[m]) continue;
    auto it = machines_[m].backup_logs.find(failed);
    if (it == machines_[m].backup_logs.end()) continue;
    for (LogRecord& record : it->second) replay.push_back(std::move(record));
    machines_[m].backup_logs.erase(it);
  }
  std::sort(replay.begin(), replay.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.seq < b.seq;
            });
  std::uint64_t last_seq = 0;
  for (const LogRecord& record : replay) {
    if (record.seq == last_seq) continue;  // Duplicate from a retried call.
    last_seq = record.seq;
    const TrunkId t = TrunkOf(record.id);
    const MachineId owner = primary_table_.machine_of_trunk(t);
    auto owner_store = StorageOf(owner);
    if (owner_store == nullptr) continue;
    storage::MemoryTrunk* trunk = owner_store->trunk(t);
    if (trunk != nullptr) {
      Mirror(trunk, record.op, record.id, Slice(record.payload));
    }
  }
}

Status MemoryCloud::Mirror(storage::MemoryTrunk* trunk, CellOp op, CellId id,
                           Slice payload) {
  // Add mirrors as Put and Remove tolerates NotFound, so a retried or
  // duplicated ship (or log record) converges to the primary's state.
  switch (op) {
    case CellOp::kAdd:
    case CellOp::kPut:
      return trunk->PutCell(id, payload);
    case CellOp::kRemove: {
      Status rs = trunk->RemoveCell(id);
      return rs.IsNotFound() ? Status::OK() : rs;
    }
    case CellOp::kAppend:
      return trunk->AppendToCell(id, payload);
    default:
      return Status::InvalidArgument("non-mutating mirror op");
  }
}

Status MemoryCloud::SnapshotAllLocked() {
  // A dead machine whose trunks have not been reassigned yet is represented
  // only by the *old* epoch plus buffered logs; committing a new epoch now
  // would truncate both and lose its data. Recovery moves the trunks to
  // survivors first and then calls back in here.
  for (int m = 0; m < options_.num_slaves; ++m) {
    if (!alive_[m].load(std::memory_order_acquire) &&
        !primary_table_.trunks_of(m).empty()) {
      return Status::Unavailable("machine " + std::to_string(m) +
                                 " awaits recovery; snapshot deferred");
    }
  }
  // Stage the new epoch next to the committed one; nothing below touches
  // the previous epoch's files until the pointer flip succeeds.
  const std::uint64_t epoch = snapshot_epoch_ + 1;
  const std::string snap_prefix =
      options_.tfs_prefix + "/snap_" + std::to_string(epoch);
  for (MachineId m = 0; m < options_.num_slaves; ++m) {
    auto store = LiveStorageOf(m);
    if (store == nullptr) continue;
    Status s = store->SaveToTfs(options_.tfs, snap_prefix);
    // A failure here abandons the staging files: the previous snapshot and
    // every buffered log record stay intact, so no recovery path ever sees
    // a truncated snapshot.
    if (!s.ok()) return s;
  }
  Status s = PersistTableLocked();
  if (!s.ok()) return s;
  // Commit point: an atomic pointer flip, the TFS analog of rename(2).
  s = options_.tfs->WriteFile(options_.tfs_prefix + "/snapshot_current",
                              Slice(std::to_string(epoch)));
  if (!s.ok()) return s;
  snapshot_epoch_ = epoch;
  // Only a *committed* snapshot makes the buffered log records redundant.
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    machines_[m].backup_logs.clear();
  }
  reprotect_pending_ = false;  // Every acked write is in this epoch.
  // Garbage-collect superseded epochs (and abandoned staging attempts).
  const std::string keep = snap_prefix + "/";
  for (const std::string& path :
       options_.tfs->List(options_.tfs_prefix + "/snap_")) {
    if (path.compare(0, keep.size(), keep) != 0) {
      options_.tfs->DeleteFile(path);
    }
  }
  return Status::OK();
}

Status MemoryCloud::SaveSnapshot() {
  if (options_.tfs == nullptr) {
    return Status::InvalidArgument("no TFS configured");
  }
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotAllLocked();
}

std::uint64_t MemoryCloud::ReplicaMemoryBytes() const {
  std::uint64_t total = 0;
  for (MachineId m = 0; m < options_.num_slaves; ++m) {
    if (auto store = LiveStorageOf(m)) total += store->ReplicaFootprintBytes();
  }
  return total;
}

std::vector<MachineId> MemoryCloud::WantedReplicasLocked(
    TrunkId t, const std::vector<MachineId>& alive,
    std::vector<MachineId>* missing) const {
  // Rendezvous scores of the survivors are unchanged by a departure, so only
  // the lost replicas re-place (consistent-hashing stability).
  std::vector<MachineId> want =
      ReplicaTargets(t, primary_table_.machine_of_trunk(t),
                     options_.replication_factor, alive);
  const std::vector<MachineId>& have = primary_table_.replicas_of_trunk(t);
  for (MachineId w : want) {
    if (std::find(have.begin(), have.end(), w) == have.end()) {
      missing->push_back(w);
    }
  }
  return want;
}

int MemoryCloud::ReReplicate() {
  if (!replicated()) return 0;
  // Every cell stripe is held from job collection through the commit, so
  // no mutation (and no replica apply it ships) is in flight meanwhile:
  // each image holds every write its primary applied, no write lands
  // between an image and its commit, and no trunk is marked diverged after
  // the jobs that clear the mark were collected.
  CellStripes::Guard quiesce(CellStripes::All());
  std::vector<ReplicaInstall> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<MachineId> alive = AliveSlavesLocked();
    if (alive.size() < 2) return 0;
    for (TrunkId t = 0; t < primary_table_.num_slots(); ++t) {
      const MachineId primary = primary_table_.machine_of_trunk(t);
      if (!alive_[primary].load(std::memory_order_acquire) ||
          StorageOf(primary) == nullptr) {
        continue;  // Awaiting promotion; not repairable yet.
      }
      std::vector<MachineId> missing;
      WantedReplicasLocked(t, alive, &missing);
      const bool resync = diverged_.erase(t) != 0;
      if (resync) {  // Re-ship to the whole in-sync set.
        const std::vector<MachineId>& isr = primary_table_.replicas_of_trunk(t);
        missing.insert(missing.end(), isr.begin(), isr.end());
      }
      for (MachineId w : missing) jobs.push_back({t, primary, w, resync});
    }
  }
  if (jobs.empty()) return 0;
  // Canonical order: injected faults must hit the same calls run after run.
  std::sort(jobs.begin(), jobs.end(),
            [](const ReplicaInstall& a, const ReplicaInstall& b) {
              if (a.trunk != b.trunk) return a.trunk < b.trunk;
              return a.target < b.target;
            });
  // Parallel partitioned serialization: the source images are built
  // concurrently on the pool (the expensive, CPU-bound half), then shipped
  // *sequentially* in canonical order so the fault injector's PRNG — and
  // therefore every chaos seed's behavior — is consumed identically run to
  // run. Mirrors the BSP engine's parallel-compute/sequential-traffic
  // determinism pattern.
  std::vector<std::string> images(jobs.size());
  std::vector<Status> serialize_status(jobs.size(), Status::OK());
  ThreadPool pool(0);
  pool.ParallelFor(static_cast<int>(jobs.size()), [&](int i) {
    auto store = StorageOf(jobs[i].primary);
    storage::MemoryTrunk* source =
        store == nullptr ? nullptr : store->trunk(jobs[i].trunk);
    if (source == nullptr) {
      serialize_status[i] = Status::Unavailable("source trunk vanished");
      return;
    }
    serialize_status[i] = source->Serialize(&images[i]);
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ReplicaInstall& job = jobs[i];
    if (!serialize_status[i].ok()) continue;
    if (!fabric_->IsMachineUp(job.primary) ||
        !fabric_->IsMachineUp(job.target)) {
      continue;  // A crash got here first; the next sweep retries.
    }
    // Charge the serialization to the source machine's CPU meter.
    fabric_->AddCpuMicros(job.primary,
                          static_cast<double>(images[i].size()) * 0.0005);
    BinaryWriter writer;
    writer.PutI32(job.trunk);
    writer.PutBytes(Slice(images[i]));
    std::string unused;
    Status s = fabric_->Call(job.primary, job.target, kReplicaInstallHandler,
                             Slice(writer.buffer()), &unused);
    if (s.ok() && fabric_->IsMachineUp(job.target)) {
      job.shipped_bytes = images[i].size();
    }
  }
  // One request commits every landed image and trims the surplus holders.
  Reconfigure({.kind = Change::Kind::kReplicate, .installs = &jobs});
  return static_cast<int>(std::count_if(
      jobs.begin(), jobs.end(),
      [](const ReplicaInstall& job) { return job.installed; }));
}

}  // namespace trinity::cloud
