#include "cloud/memory_cloud.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>

#include "cloud/cell_stripes.h"
#include "cloud/replica_placement.h"
#include "common/serializer.h"
// Header-only [id][len][bytes] record helpers shared with the compute
// engines' outboxes; MultiGet responses reuse the same wire shape.
#include "compute/packed_messages.h"

namespace trinity::cloud {

namespace {

std::string EncodeCellOp(std::uint8_t op, CellId id, Slice payload) {
  BinaryWriter writer;
  writer.PutU8(op);
  writer.PutU64(id);
  writer.PutBytes(payload);
  return writer.Release();
}

bool DecodeCellOp(Slice data, std::uint8_t* op, CellId* id, Slice* payload) {
  BinaryReader reader(data);
  return reader.GetU8(op) && reader.GetU64(id) && reader.GetBytes(payload);
}

}  // namespace

MemoryCloud::MemoryCloud(const Options& options) : options_(options) {}

Status MemoryCloud::Create(const Options& options,
                           std::unique_ptr<MemoryCloud>* out) {
  if (options.num_slaves < 1) {
    return Status::InvalidArgument("need at least one slave");
  }
  if ((1 << options.p_bits) < options.num_slaves) {
    return Status::InvalidArgument("need 2^p_bits >= num_slaves");
  }
  if (options.buffered_logging && options.num_slaves < 2) {
    return Status::InvalidArgument("buffered logging needs a backup slave");
  }
  if (options.replication_factor < 0) {
    return Status::InvalidArgument("replication_factor must be >= 0");
  }
  if (options.replication_factor > 0 && options.buffered_logging) {
    return Status::InvalidArgument(
        "replication subsumes buffered logging; enable only one");
  }
  Options resolved = options;
  if (resolved.storage.trunk.memory_budget > 0 &&
      resolved.storage.trunk.cold_tfs == nullptr) {
    // Auto-wire the cold tier onto the cloud's TFS: every trunk spills
    // under <tfs_prefix>/cold (each gets a unique sub-prefix on its own).
    if (resolved.tfs == nullptr) {
      return Status::InvalidArgument("trunk memory budget requires a tfs");
    }
    resolved.storage.trunk.cold_tfs = resolved.tfs;
    resolved.storage.trunk.cold_prefix = resolved.tfs_prefix + "/cold";
  }
  std::unique_ptr<MemoryCloud> cloud(new MemoryCloud(resolved));
  Status s = cloud->Init();
  if (!s.ok()) return s;
  *out = std::move(cloud);
  return Status::OK();
}

Status MemoryCloud::Init() {
  fabric_ = std::make_unique<net::Fabric>(num_endpoints(), options_.fabric);
  // Injected crashes (FaultInjector::CrashAfter) mirror FailMachine: the
  // fabric marks the endpoint down and we drop its volatile state.
  fabric_->SetCrashListener([this](MachineId m) {
    Reconfigure({.kind = Change::Kind::kCrash, .machine = m});
  });
  if (options_.tfs != nullptr) {
    // Resume from the last committed snapshot epoch, if any.
    std::string epoch;
    if (options_.tfs->ReadFile(options_.tfs_prefix + "/snapshot_current",
                               &epoch).ok()) {
      snapshot_epoch_ = std::strtoull(epoch.c_str(), nullptr, 10);
    }
    // Resume past every leader epoch an earlier incarnation fenced, so the
    // next election claims a fresh flag instead of colliding with them.
    const std::string flag_prefix = LeaderFlagPrefix();
    for (const std::string& flag : options_.tfs->List(flag_prefix)) {
      leader_epoch_ = std::max<std::uint64_t>(
          leader_epoch_,
          std::strtoull(flag.c_str() + flag_prefix.size(), nullptr, 10));
    }
  }
  primary_table_ = AddressingTable(options_.p_bits, options_.num_slaves);
  if (replicated()) {
    // Seed the in-sync replica sets: rendezvous hashing over the slaves,
    // always on machines distinct from the primary (and from each other).
    std::vector<MachineId> slaves;
    for (MachineId m = 0; m < options_.num_slaves; ++m) slaves.push_back(m);
    for (TrunkId t = 0; t < primary_table_.num_slots(); ++t) {
      primary_table_.SetReplicas(
          t, ReplicaTargets(t, primary_table_.machine_of_trunk(t),
                            options_.replication_factor, slaves));
    }
  }
  machines_ = std::make_unique<MachineState[]>(num_endpoints());
  alive_ = std::make_unique<std::atomic<bool>[]>(num_endpoints());
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    alive_[m].store(true, std::memory_order_relaxed);
    machines_[m].table_replica = primary_table_;
    if (m < options_.num_slaves) {
      auto store = std::make_shared<storage::MemoryStorage>(options_.storage);
      for (TrunkId t : primary_table_.trunks_of(m)) {
        Status s = store->AttachTrunk(t);
        if (!s.ok()) return s;
      }
      machines_[m].storage.store(std::move(store),
                                 std::memory_order_release);
    }
    RegisterHandlers(m);
  }
  if (replicated()) {
    for (TrunkId t = 0; t < primary_table_.num_slots(); ++t) {
      for (MachineId r : primary_table_.replicas_of_trunk(t)) {
        Status s = StorageOf(r)->AttachReplicaTrunk(t);
        if (!s.ok()) return s;
      }
    }
  }
  return Status::OK();
}

void MemoryCloud::RegisterHandlers(MachineId m) {
  if (m >= options_.num_slaves) return;  // Proxies/client carry no data.
  fabric_->RegisterSyncHandler(
      m, kCellOpHandler,
      [this, m](MachineId, Slice request, std::string* response) {
        std::uint8_t op = 0;
        CellId id = 0;
        Slice payload;
        if (!DecodeCellOp(request, &op, &id, &payload)) {
          return Status::Corruption("bad cell op request");
        }
        return ExecuteLocal(m, static_cast<CellOp>(op), id, payload,
                            response);
      });
  fabric_->RegisterSyncHandler(
      m, kMultiGetHandler,
      [this, m](MachineId, Slice request, std::string* response) {
        return AnswerMultiGet(m, request, response);
      });
  fabric_->RegisterSyncHandler(
      m, kHeartbeatHandler,
      [](MachineId, Slice, std::string* response) {
        if (response != nullptr) *response = "pong";
        return Status::OK();
      });
  RegisterReplicationHandlers(m);
}

Status MemoryCloud::AnswerMultiGet(MachineId m, Slice request,
                                   std::string* response) {
  BinaryReader reader(request);
  std::uint8_t op = 0;
  std::uint32_t count = 0;
  if (!reader.GetU8(&op) || !reader.GetU32(&count)) {
    return Status::Corruption("bad multi-get request");
  }
  if (response == nullptr) return Status::InvalidArgument("no response");
  auto store = StorageOf(m);
  if (store == nullptr) return Status::Unavailable("not a slave");
  for (std::uint32_t i = 0; i < count; ++i) {
    CellId id = 0;
    if (!reader.GetU64(&id)) {
      return Status::Corruption("bad multi-get request");
    }
    storage::MemoryTrunk* trunk = store->trunk(TrunkOf(id));
    if (trunk == nullptr) {
      // The caller's routing snapshot is stale for this id. Fail the whole
      // batch so the caller re-routes each id individually — partial
      // answers must not masquerade as NotFound.
      return Status::Unavailable("trunk not hosted");
    }
    // Present ids answer with a record (empty for kContains); absent ids
    // are simply omitted from the response.
    if (static_cast<CellOp>(op) == CellOp::kContains) {
      if (trunk->Contains(id)) {
        compute::AppendPackedRecord(response, id, Slice());
      }
      continue;
    }
    storage::MemoryTrunk::ConstAccessor accessor;
    if (trunk->Access(id, &accessor).ok()) {
      compute::AppendPackedRecord(response, id, accessor.data());
    }
  }
  return Status::OK();
}

MachineId MemoryCloud::MachineOf(CellId id) const {
  return RouteVia(primary_routing_, primary_table_, TrunkOf(id));
}

std::shared_ptr<storage::MemoryStorage> MemoryCloud::LiveStorageOf(
    MachineId m) const {
  return m >= 0 && m < options_.num_slaves &&
                 alive_[m].load(std::memory_order_acquire)
             ? StorageOf(m)
             : nullptr;
}

std::uint64_t MemoryCloud::MemoryFootprintBytes() const {
  std::uint64_t total = 0;
  for (MachineId m = 0; m < options_.num_slaves; ++m) {
    if (auto store = LiveStorageOf(m)) total += store->MemoryFootprintBytes();
  }
  return total;
}

std::uint64_t MemoryCloud::TotalCellCount() const {
  std::uint64_t total = 0;
  for (MachineId m = 0; m < options_.num_slaves; ++m) {
    if (auto store = LiveStorageOf(m)) total += store->TotalCellCount();
  }
  return total;
}

storage::MemoryTrunk::Stats MemoryCloud::AggregateTrunkStats() const {
  storage::MemoryTrunk::Stats total;
  for (MachineId m = 0; m < options_.num_slaves; ++m) {
    if (auto store = LiveStorageOf(m)) {
      Accumulate(&total, store->AggregateTrunkStats());
    }
  }
  return total;
}

Status MemoryCloud::ExecuteLocal(MachineId m, CellOp op, CellId id,
                                 Slice payload, std::string* response) {
  auto store = StorageOf(m);
  if (store == nullptr) return Status::Unavailable("not a slave");
  storage::MemoryTrunk* trunk = store->trunk(TrunkOf(id));
  if (trunk == nullptr) {
    // The caller's addressing-table replica is stale.
    return Status::Unavailable("trunk not hosted");
  }
  Status result;  // Reads return from the switch; the rest mutate.
  switch (op) {
    case CellOp::kAdd:
      result = trunk->AddCell(id, payload);
      break;
    case CellOp::kPut:
      result = trunk->PutCell(id, payload);
      break;
    case CellOp::kGet: {
      if (response == nullptr) return Status::InvalidArgument("no response");
      return trunk->GetCell(id, response);
    }
    case CellOp::kRemove:
      result = trunk->RemoveCell(id);
      break;
    case CellOp::kAppend:
      result = trunk->AppendToCell(id, payload);
      break;
    case CellOp::kContains:
      return trunk->Contains(id) ? Status::OK() : Status::NotFound("");
    default:
      return Status::InvalidArgument("unknown op");
  }
  // Only *successful* mutations reach the backup's log buffer — a rejected
  // op (e.g. AddCell on an existing id) must not be replayed at recovery.
  // (The coarse crash model here — failures happen between operations —
  // makes log-after-apply equivalent to RAMCloud's log-before-commit.)
  if (!result.ok()) return result;
  if (options_.buffered_logging && options_.tfs != nullptr) {
    if (!LogToBackup(m, op, id, payload)) {
      // The machine crashed while logging and no live backup holds the
      // record: the local apply above is now a ghost image that recovery
      // will discard. Acking would lose the write — fail instead, and let
      // the caller's retry re-apply on the recovered owner.
      return Status::Unavailable("machine crashed before logging completed");
    }
  }
  if (replicated()) {
    // Synchronous primary/backup replication: the ack goes out only after
    // every in-sync replica applied the mutation (or the leader confirmed
    // shrinking it out). Like the logging path above, a non-OK here after a
    // successful local apply leaves a ghost (the next sweep re-syncs the
    // trunk's replicas to it); callers retry against the (possibly
    // promoted) owner, so mutations are at-least-once — Put/Remove are
    // idempotent.
    return ReplicateMutation(m, op, id, payload);
  }
  return result;
}

std::shared_ptr<const MemoryCloud::RoutingView> MemoryCloud::BuildRoutingView(
    const AddressingTable& table) const {
  auto view = std::make_shared<RoutingView>();
  view->stamp = routing_stamp_.load(std::memory_order_acquire);
  view->owner.resize(static_cast<std::size_t>(table.num_slots()));
  for (TrunkId t = 0; t < table.num_slots(); ++t) {
    view->owner[static_cast<std::size_t>(t)] = table.machine_of_trunk(t);
  }
  return view;
}

void MemoryCloud::RefreshRoutingLocked(MachineId m) {
  machines_[m].routing.store(BuildRoutingView(machines_[m].table_replica),
                             std::memory_order_release);
}

MachineId MemoryCloud::RouteVia(
    std::atomic<std::shared_ptr<const RoutingView>>& slot,
    const AddressingTable& table, TrunkId t) const {
  // RCU fast path: route against an immutable snapshot with no lock taken.
  // The stamp check bounds staleness to the last membership or table
  // change; correctness never depends on it because a wrong owner answers
  // Unavailable and RouteOp re-syncs and retries.
  std::shared_ptr<const RoutingView> view =
      slot.load(std::memory_order_acquire);
  if (view != nullptr &&
      view->stamp == routing_stamp_.load(std::memory_order_acquire)) {
    return view->owner[static_cast<std::size_t>(t)];
  }
  // Slow path: rebuild the snapshot under the lock from the (possibly still
  // stale) table — re-sync with the primary stays RouteOp's job.
  std::lock_guard<std::mutex> lock(mu_);
  slot.store(BuildRoutingView(table), std::memory_order_release);
  return table.machine_of_trunk(t);
}

Status MemoryCloud::RouteOp(MachineId src, CellOp op, CellId id,
                            Slice payload, std::string* response,
                            CallContext* ctx) {
  // Single-cell *mutations* acquire the cell's stripe in the shared
  // CellStripes table so they serialize against in-flight guarded operations
  // (MultiOp, transaction intent CAS) touching the same cell — a bare write
  // can no longer land between a guard's evaluation and its action apply.
  // Reads stay lock-free: they cannot invalidate a guard, and the guarded
  // paths hold the stripes across their own reads. Re-entrant acquisitions
  // from MultiOp's action phase are skipped by the per-thread held list.
  std::optional<CellStripes::Guard> guard;
  if (op != CellOp::kGet && op != CellOp::kContains) guard.emplace(id);
  const RetryPolicy& retry = options_.retry;
  if (!fabric_->IsMachineUp(src)) {
    // A dead machine cannot issue operations — this also keeps the local
    // fast path below from reading a crashed machine's lingering image.
    return Status::Unavailable("source machine is down");
  }
  bool owner_down = false;
  bool src_down = false;
  RetryPolicy::RunHooks hooks =
      ChargedTo(src, Mix64(id) ^ static_cast<std::uint64_t>(src));
  hooks.ctx = ctx;
  hooks.keep_trying = [&] {
    if (!fabric_->IsMachineUp(src)) {
      // The source crashed between attempts; its ghost image must not
      // serve the local fast path below.
      src_down = true;
      return false;
    }
    return true;
  };
  Status last = retry.Run(hooks, [&](int) -> Status {
    const MachineId dst = RouteDst(src, id);
    Status s;
    if (dst == src && StorageOf(src) != nullptr) {
      net::Fabric::MeterScope meter(*fabric_, src);
      s = ExecuteLocal(src, op, id, payload, response);
    } else {
      const std::string request =
          EncodeCellOp(static_cast<std::uint8_t>(op), id, payload);
      s = fabric_->Call(src, dst, kCellOpHandler, Slice(request),
                        response, ctx);
    }
    // Unavailable: our table replica is stale ("trunk not hosted"), the
    // owner crashed, or a fault was injected on the wire. TimedOut is the
    // injected lost-response case — equally retriable. Everything else is a
    // definitive answer (including Aborted: the source is a fenced, deposed
    // primary and must not spin).
    if (!s.IsRetryable()) return s;
    // Degraded-read failover: a read blocked by a dead *or partitioned*
    // owner is served by any in-sync replica immediately, before (and
    // without) any promotion work.
    if (replicated() &&
        (op == CellOp::kGet || op == CellOp::kContains)) {
      bool served = false;
      Status rs = TryReplicaRead(src, op, id, response, &served, ctx);
      if (served) return rs;
    }
    // The epoch is read before the liveness check, so a restart of dst
    // that this attempt did not see makes the request below stale.
    const std::uint64_t epoch = routing_stamp_.load(std::memory_order_acquire);
    owner_down = !fabric_->IsMachineUp(dst);
    if (owner_down) {
      if (replicated() && !options_.auto_promote) {
        // Writes stay retryable until the sweep promotes.
        return Status::Unavailable(
            "owner down; promotion pending for trunk " +
            std::to_string(TrunkOf(id)) + " (retry)");
      }
      if (replicated() || options_.tfs != nullptr) {
        // Only *request* recovery (promotion: a metadata flip, no TFS reads
        // unless every replica of a trunk died with the owner; else a TFS
        // reload). A request overtaken by a concurrent promotion or restart
        // does nothing; either way the retry below routes afresh.
        Status rs = RequestRecovery(dst, epoch);
        if (!rs.ok()) return rs;
      } else {
        // Pure in-memory mode: no recovery path exists, but the replica can
        // still be merely stale — MigrateTrunk/RebalanceTrunks move trunks
        // without any crash. Re-sync from the primary table and retry only
        // if it names a different (live) owner.
        std::lock_guard<std::mutex> lock(mu_);
        if (primary_table_.machine_of_trunk(TrunkOf(id)) == dst) {
          return Status::Unavailable(
              "owner unrecoverable: machine " + std::to_string(dst) +
              " is down and no TFS is configured for recovery");
        }
      }
    }
    // §6.2: "machine A will wait for the addressing table to be updated,
    // and attempt to access the item again."
    std::lock_guard<std::mutex> lock(mu_);
    machines_[src].table_replica = primary_table_;
    RefreshRoutingLocked(src);
    return s;
  });
  if (src_down) return Status::Unavailable("source machine is down");
  if (!last.IsRetryable()) return last;
  // Bounded attempts exhausted — name the terminal condition precisely so
  // callers can tell a dead owner from a table that never converges.
  if (owner_down) {
    return Status::Unavailable("owner unrecoverable after " +
                               std::to_string(retry.max_attempts) +
                               " attempts: " + last.message());
  }
  return Status::Unavailable("addressing table permanently stale after " +
                             std::to_string(retry.max_attempts) +
                             " attempts: " + last.message());
}

Status MemoryCloud::MultiOp(MachineId src, CellOp op,
                            std::span<const CellId> ids,
                            std::vector<MultiGetResult>* out,
                            CallContext* ctx) {
  if (out == nullptr) return Status::InvalidArgument("no output vector");
  out->assign(ids.size(), MultiGetResult{});
  if (ids.empty()) return Status::OK();
  if (!fabric_->IsMachineUp(src)) {
    return Status::Unavailable("source machine is down");
  }
  // Group the batch by owner via the lock-free snapshot. std::map keeps the
  // per-machine call order deterministic for the fault injector.
  std::map<MachineId, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    groups[RouteDst(src, ids[i])].push_back(i);
  }
  // Ids whose batched path failed retriably fall back to the single-id
  // RouteOp, which owns re-sync, degraded reads, and promotion failover.
  std::vector<std::size_t> fallback;
  for (const auto& [dst, indices] : groups) {
    // One packed request per machine; a local group is answered by the
    // same code straight from this machine's trunks.
    BinaryWriter writer;
    writer.PutU8(static_cast<std::uint8_t>(op));
    writer.PutU32(static_cast<std::uint32_t>(indices.size()));
    for (std::size_t i : indices) writer.PutU64(ids[i]);
    const std::string request = writer.Release();
    std::string response;
    Status s;
    if (dst == src && StorageOf(src) != nullptr) {
      net::Fabric::MeterScope meter(*fabric_, src);
      s = AnswerMultiGet(src, Slice(request), &response);
    } else {
      s = fabric_->Call(src, dst, kMultiGetHandler, Slice(request), &response,
                        ctx);
    }
    if (!s.ok()) {
      // Stale routing, dead owner, or injected fault: every id in the group
      // retries individually so failover semantics match GetCellFrom.
      fallback.insert(fallback.end(), indices.begin(), indices.end());
      continue;
    }
    // The response holds one packed record per *found* id; ids the owner did
    // not report keep their NotFound default.
    std::map<CellId, std::vector<std::size_t>> by_id;
    for (std::size_t i : indices) by_id[ids[i]].push_back(i);
    compute::ForEachPackedRecord(Slice(response),
                                 [&](CellId id, Slice bytes) {
      auto it = by_id.find(id);
      if (it == by_id.end()) return;
      for (std::size_t i : it->second) {
        (*out)[i].status = Status::OK();
        if (op == CellOp::kGet) {
          (*out)[i].value.assign(bytes.data(), bytes.size());
        }
      }
    });
  }
  for (std::size_t i : fallback) {
    std::string value;
    Status s = RouteOp(src, op, ids[i], Slice(),
                       op == CellOp::kGet ? &value : nullptr, ctx);
    (*out)[i].status = s;
    if (s.ok() && op == CellOp::kGet) (*out)[i].value = std::move(value);
  }
  return Status::OK();
}

Status MemoryCloud::Contains(CellId id, bool* exists) {
  *exists = false;
  Status s = RouteOp(client_id(), CellOp::kContains, id, Slice(), nullptr);
  if (s.ok()) {
    *exists = true;
    return Status::OK();
  }
  if (s.IsNotFound()) return Status::OK();
  return s;  // Unavailable etc. — absence was NOT established.
}

void MemoryCloud::DesyncReplicaForTest(MachineId m) {
  std::lock_guard<std::mutex> lock(mu_);
  machines_[m].table_replica =
      AddressingTable(options_.p_bits, options_.num_slaves);
  // Install a snapshot of the *stale* table: the fast path must route per
  // the desynced view so RouteOp's transparent re-sync is exercised.
  RefreshRoutingLocked(m);
}

}  // namespace trinity::cloud
