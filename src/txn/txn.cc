#include "txn/txn.h"

#include <algorithm>
#include <utility>

#include "common/serializer.h"

namespace trinity::txn {

namespace {

/// Commit-record payload stored at TxnManager::RecordCellOf(txn_id):
/// [state u8 'C'|'A'][commit_ts u64][n u32][cell ids u64 × n]. The record
/// cell is the transaction's single decision point — it is created exactly
/// once (MultiOp CompareAbsent CAS) by either the coordinator ('C') or a
/// presumed-abort helper ('A'), and never mutated or removed afterwards.
struct CommitRecord {
  bool committed = false;
  std::uint64_t commit_ts = 0;
  std::vector<CellId> cells;
};

std::string EncodeRecord(const CommitRecord& rec) {
  BinaryWriter w;
  w.PutU8(rec.committed ? 'C' : 'A');
  w.PutU64(rec.commit_ts);
  w.PutU32(static_cast<std::uint32_t>(rec.cells.size()));
  for (CellId id : rec.cells) w.PutU64(id);
  return w.Release();
}

Status DecodeRecord(Slice payload, CommitRecord* out) {
  BinaryReader r(payload);
  std::uint8_t state = 0;
  std::uint32_t n = 0;
  *out = CommitRecord{};
  if (!r.GetU8(&state) || !r.GetU64(&out->commit_ts) || !r.GetU32(&n)) {
    return Status::Corruption("truncated commit record");
  }
  if (state != 'C' && state != 'A') {
    return Status::Corruption("commit record with unknown state byte");
  }
  out->committed = (state == 'C');
  out->cells.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t id = 0;
    if (!r.GetU64(&id)) return Status::Corruption("truncated commit record");
    out->cells.push_back(id);
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- CellCodec

std::string CellCodec::Encode(const VersionedCell& cell) {
  BinaryWriter w;
  w.PutU8(kMagic);
  w.PutU64(cell.version);
  w.PutU8(cell.exists ? 1 : 0);
  if (cell.exists) w.PutString(cell.value);
  w.PutU8(cell.has_intent ? 1 : 0);
  if (cell.has_intent) {
    w.PutU64(cell.intent_txn);
    w.PutU8(cell.intent_remove ? 1 : 0);
    if (!cell.intent_remove) w.PutString(cell.intent_value);
  }
  return w.Release();
}

Status CellCodec::Decode(Slice payload, VersionedCell* out) {
  *out = VersionedCell{};
  if (payload.size() == 0 ||
      static_cast<std::uint8_t>(payload.data()[0]) != kMagic) {
    // Legacy payload written by the plain KV API: a committed value at the
    // reserved pre-transactional version.
    out->version = kLegacyVersion;
    out->exists = true;
    out->value.assign(payload.data(), payload.size());
    return Status::OK();
  }
  BinaryReader r(payload);
  std::uint8_t magic = 0, flag = 0;
  if (!r.GetU8(&magic) || !r.GetU64(&out->version) || !r.GetU8(&flag)) {
    return Status::Corruption("truncated versioned cell");
  }
  out->exists = (flag != 0);
  if (out->exists && !r.GetString(&out->value)) {
    return Status::Corruption("truncated versioned cell value");
  }
  if (!r.GetU8(&flag)) return Status::Corruption("truncated intent flag");
  out->has_intent = (flag != 0);
  if (out->has_intent) {
    if (!r.GetU64(&out->intent_txn) || !r.GetU8(&flag)) {
      return Status::Corruption("truncated write intent");
    }
    out->intent_remove = (flag != 0);
    if (!out->intent_remove && !r.GetString(&out->intent_value)) {
      return Status::Corruption("truncated write intent value");
    }
  }
  return Status::OK();
}

// ----------------------------------------------------------- Transaction

Status Transaction::Get(CellId id, std::string* out) {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction already finished");
  }
  auto w = writes_.find(id);
  if (w != writes_.end()) {  // Read-your-writes from the buffer.
    if (w->second.remove) return Status::NotFound("removed in transaction");
    if (out) *out = w->second.value;
    return Status::OK();
  }
  auto r = reads_.find(id);
  if (r != reads_.end()) {  // Repeatable reads from the read set.
    if (!r->second.found) return Status::NotFound("no such cell");
    if (out) *out = r->second.value;
    return Status::OK();
  }
  VersionedCell cell;
  Status s = mgr_->ResolveCell(src_, id, &cell, ctx_);
  if (!s.ok()) return s;
  reads_.emplace(id, ReadEntry{cell.version, cell.exists, cell.value});
  if (!cell.exists) return Status::NotFound("no such cell");
  if (out) *out = cell.value;
  return Status::OK();
}

Status Transaction::Put(CellId id, Slice value) {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction already finished");
  }
  writes_[id] = WriteEntry{false, value.ToString()};
  return Status::OK();
}

Status Transaction::Remove(CellId id) {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction already finished");
  }
  writes_[id] = WriteEntry{true, ""};
  return Status::OK();
}

Status Transaction::RunStep(std::uint64_t salt,
                            const std::function<Status()>& attempt) {
  // Conflicts are IsRetryable() so the *whole-transaction* loop above us
  // re-runs the transaction — but within one transaction a conflict is
  // terminal, so stop the step loop through keep_trying while preserving
  // the subcoded status.
  Status conflict;
  RetryPolicy::RunHooks hooks;
  hooks.ctx = ctx_;
  hooks.salt = salt;
  hooks.charge = [this](double micros) {
    mgr_->cloud_->fabric().AddCpuMicros(src_, micros);
  };
  hooks.keep_trying = [&conflict] { return conflict.ok(); };
  return mgr_->policy_.Run(hooks, [&](int) {
    Status s = attempt();
    if (s.IsTxnConflict()) conflict = s;
    return s;
  });
}

Status Transaction::PlaceIntent(CellId id, const WriteEntry& w) {
  const int kCasAttempts = std::max(4, mgr_->policy_.max_attempts);
  for (int i = 0; i < kCasAttempts; ++i) {
    std::string raw;
    Status s = mgr_->cloud_->GetCellFrom(src_, id, &raw, ctx_);
    const bool absent = s.IsNotFound();
    if (!s.ok() && !absent) return s;
    VersionedCell cur;
    if (!absent) {
      s = CellCodec::Decode(Slice(raw), &cur);
      if (!s.ok()) return s;
    }
    if (cur.has_intent) {
      if (cur.intent_txn == txn_id_) return Status::OK();  // Idempotent.
      // Foreign intent: drive it to a decision, then re-read fresh state.
      VersionedCell resolved;
      s = mgr_->ResolveCell(src_, id, &resolved, ctx_);
      if (!s.ok()) return s;
      continue;
    }
    // Snapshot-isolation write checks. Both failures mean another
    // transaction committed this cell concurrently with us.
    auto r = reads_.find(id);
    if (r != reads_.end() && cur.version != r->second.version) {
      return Status::Aborted(
          "write-set cell " + std::to_string(id) + " changed since read",
          Status::Subcode::kTxnConflict);
    }
    if (cur.version > begin_ts_) {
      return Status::Aborted(
          "first committer wins: cell " + std::to_string(id) +
              " committed after our snapshot",
          Status::Subcode::kTxnConflict);
    }
    VersionedCell next = cur;
    next.has_intent = true;
    next.intent_txn = txn_id_;
    next.intent_remove = w.remove;
    next.intent_value = w.remove ? std::string() : w.value;
    const std::string encoded = CellCodec::Encode(next);
    cloud::MultiOp op(mgr_->cloud_);
    op.WithContext(ctx_);
    if (absent) {
      op.CompareAbsent(id).Put(id, Slice(encoded));
    } else {
      op.CompareEquals(id, Slice(raw)).Put(id, Slice(encoded));
    }
    s = op.Execute(src_);
    if (s.ok()) return Status::OK();
    if (!s.IsGuardFailed()) return s;
    // Lost the CAS to a concurrent writer — re-read and try again.
  }
  return Status::Aborted("intent CAS contended beyond retry limit",
                         Status::Subcode::kTxnConflict);
}

Status Transaction::ValidateRead(CellId id, const ReadEntry& r) {
  // ResolveCell first drives any in-flight intent on the cell to a
  // decision (wounding a slower writer), so the version comparison is
  // always against committed state.
  VersionedCell cur;
  Status s = mgr_->ResolveCell(src_, id, &cur, ctx_);
  if (!s.ok()) return s;
  if (cur.version != r.version) {
    return Status::Aborted(
        "read-set validation failed for cell " + std::to_string(id),
        Status::Subcode::kTxnConflict);
  }
  return Status::OK();
}

Status Transaction::WriteCommitRecord() {
  CommitRecord rec;
  rec.committed = true;
  rec.commit_ts = commit_ts_;
  rec.cells.assign(placed_.begin(), placed_.end());
  const CellId rid = TxnManager::RecordCellOf(txn_id_);
  const std::string encoded = EncodeRecord(rec);
  cloud::MultiOp op(mgr_->cloud_);
  op.WithContext(ctx_);
  op.CompareAbsent(rid).Put(rid, Slice(encoded));
  Status s = op.Execute(src_);
  if (s.ok()) return Status::OK();
  if (!s.IsGuardFailed()) return s;
  // Lost the record CAS. Either an infra retry of our own Put already
  // landed (committed after all) or a presumed-abort helper decided first.
  std::string raw;
  Status g = mgr_->cloud_->GetCellFrom(src_, rid, &raw, ctx_);
  if (!g.ok()) return g;
  CommitRecord existing;
  g = DecodeRecord(Slice(raw), &existing);
  if (!g.ok()) return g;
  if (existing.committed) return Status::OK();
  return Status::Aborted("wound-aborted by a recovery sweep",
                         Status::Subcode::kTxnConflict);
}

Status Transaction::TryCommit() {
  const auto crash = [this] {
    crashed_ = true;
    return Status::Unavailable("txn coordinator killed at crash point");
  };

  // Phase 1 — place write intents in ascending global cell-id order (the
  // map's order), the same order every coordinator uses: deadlock-free.
  int step = 0;
  for (const auto& [id, w] : writes_) {
    if (!Hook(CommitPoint::kBeforeIntent, step)) return crash();
    Status s = RunStep(id, [&, this] { return PlaceIntent(id, w); });
    if (!s.ok()) return s;
    placed_.push_back(id);
    if (!Hook(CommitPoint::kAfterIntent, step)) return crash();
    ++step;
  }

  // Phase 2 — validate the read set against current committed versions.
  // Cells we also write were already version-checked by the intent CAS.
  step = 0;
  for (const auto& [id, r] : reads_) {
    if (writes_.count(id) != 0) continue;
    Status s = RunStep(id, [&, this] { return ValidateRead(id, r); });
    if (!s.ok()) return s;
    if (!Hook(CommitPoint::kAfterValidate, step)) return crash();
    ++step;
  }
  if (writes_.empty()) return Status::OK();  // Read-only: validated above.

  // Phase 3 — the decision: exactly-once commit-record CAS. Before this
  // lands the transaction is presumed aborted; after it, committed.
  commit_ts_ = mgr_->NextStamp();
  if (!Hook(CommitPoint::kBeforeRecord, 0)) return crash();
  Status s = RunStep(txn_id_, [this] { return WriteCommitRecord(); });
  if (!s.ok()) return s;
  if (!Hook(CommitPoint::kAfterRecord, 0)) return crash();

  // Phase 4 — resolution: flip intents to committed values. Best effort:
  // the decision is already durable, so any intent left behind by an infra
  // failure here is rolled forward lazily by the next reader or sweep.
  step = 0;
  for (CellId id : placed_) {
    VersionedCell scratch;
    (void)mgr_->ResolveCell(src_, id, &scratch, ctx_);
    if (!Hook(CommitPoint::kAfterResolve, step)) return crash();
    ++step;
  }
  return Status::OK();
}

Status Transaction::Commit() {
  if (state_ != State::kActive) {
    return Status::InvalidArgument("transaction already finished");
  }
  Status s = TryCommit();
  if (crashed_) {
    // Simulated coordinator death: leave every intent and half-written
    // record exactly as they are — recovery owns the cleanup.
    state_ = State::kCrashed;
    return s;
  }
  if (s.ok()) {
    state_ = State::kCommitted;
    mgr_->stats_.Add(&TxnManager::Stats::committed, 1);
    return s;
  }
  state_ = State::kAborted;
  mgr_->stats_.Add(&TxnManager::Stats::aborted, 1);
  // Clean abort: resolve our own intents now (each resolution decides
  // abort through the record CAS — we never wrote a 'C' record, and after
  // the 'A' record lands we never can). Best effort; anything unreachable
  // is resolved lazily by readers or the next sweep.
  for (CellId id : placed_) {
    VersionedCell scratch;
    (void)mgr_->ResolveCell(src_, id, &scratch, ctx_);
  }
  return s;
}

// ------------------------------------------------------------ TxnManager

Status TxnManager::ResolveCell(MachineId src, CellId id, VersionedCell* out,
                               CallContext* ctx) {
  const int kAttempts = std::max(8, policy_.max_attempts * 2);
  for (int i = 0; i < kAttempts; ++i) {
    if (ctx != nullptr) {
      Status c = ctx->Check();
      if (!c.ok()) return c;
    }
    std::string raw;
    Status s = cloud_->GetCellFrom(src, id, &raw, ctx);
    if (s.IsNotFound()) {
      *out = VersionedCell{};
      return Status::OK();
    }
    if (!s.ok()) return s;
    VersionedCell cur;
    s = CellCodec::Decode(Slice(raw), &cur);
    if (!s.ok()) return s;
    if (!cur.has_intent) {
      *out = std::move(cur);
      return Status::OK();
    }

    // Intent found: the owner's commit record is the single source of
    // truth for its fate.
    const CellId rid = RecordCellOf(cur.intent_txn);
    std::string rec_raw;
    bool commit = false;
    std::uint64_t commit_ts = 0;
    s = cloud_->GetCellFrom(src, rid, &rec_raw, ctx);
    if (s.ok()) {
      CommitRecord rec;
      Status d = DecodeRecord(Slice(rec_raw), &rec);
      if (!d.ok()) return d;
      commit = rec.committed;
      commit_ts = rec.commit_ts;
    } else if (s.IsNotFound()) {
      // Presumed abort: no record means not committed. Race the (possibly
      // still-running) owner for the record cell; exactly one CAS wins. A
      // live coordinator that loses sees 'A' at its own record CAS and
      // aborts cleanly — no torn outcome either way.
      CommitRecord abort_rec;  // committed=false
      const std::string encoded = EncodeRecord(abort_rec);
      cloud::MultiOp op(cloud_);
      op.WithContext(ctx);
      op.CompareAbsent(rid).Put(rid, Slice(encoded));
      Status a = op.Execute(src);
      if (a.ok()) {
        stats_.Add(&Stats::presumed_aborts, 1);
      } else if (a.IsGuardFailed()) {
        continue;  // Owner won the race — re-read the record next lap.
      } else {
        return a;
      }
    } else {
      return s;
    }
    Status ap = ApplyDecision(src, id, raw, cur, commit, commit_ts, ctx);
    if (!ap.ok() && !ap.IsGuardFailed()) return ap;
    // ok: re-read to return the post-decision state. Guard-fail: someone
    // else applied the decision (or the cell moved on) — re-read too.
  }
  return Status::Aborted("intent resolution contended beyond retry limit",
                         Status::Subcode::kTxnConflict);
}

Status TxnManager::ApplyDecision(MachineId src, CellId id,
                                 const std::string& raw,
                                 const VersionedCell& cur, bool commit,
                                 std::uint64_t commit_ts, CallContext* ctx) {
  VersionedCell next;
  if (commit) {
    next.version = commit_ts;
    next.exists = !cur.intent_remove;
    next.value = cur.intent_value;
  } else {
    // Restore the pre-intent committed state (tombstones keep their
    // version so a later reader can still order against them).
    next.version = cur.version;
    next.exists = cur.exists;
    next.value = cur.value;
  }
  cloud::MultiOp op(cloud_);
  op.WithContext(ctx);
  if (!commit && next.version == 0 && !next.exists) {
    // Rolling back an intent on a never-written cell: restore absence.
    op.CompareEquals(id, Slice(raw)).Remove(id);
  } else {
    const std::string encoded = CellCodec::Encode(next);
    op.CompareEquals(id, Slice(raw)).Put(id, Slice(encoded));
  }
  Status s = op.Execute(src);
  if (s.ok()) {
    stats_.Add(commit ? &Stats::rolled_forward : &Stats::rolled_back, 1);
  }
  return s;
}

Status TxnManager::ReadCommitted(MachineId src, CellId id, std::string* out,
                                 CallContext* ctx) {
  VersionedCell cell;
  Status s = ResolveCell(src, id, &cell, ctx);
  if (!s.ok()) return s;
  if (!cell.exists) return Status::NotFound("no such cell");
  if (out) *out = cell.value;
  return Status::OK();
}

Status TxnManager::ResolveIntents(MachineId src, std::span<const CellId> ids,
                                  int* resolved, CallContext* ctx) {
  int n = 0;
  for (CellId id : ids) {
    std::string raw;
    Status s = cloud_->GetCellFrom(src, id, &raw, ctx);
    if (s.IsNotFound()) continue;
    if (!s.ok()) return s;
    VersionedCell cur;
    s = CellCodec::Decode(Slice(raw), &cur);
    if (!s.ok()) return s;
    if (!cur.has_intent) continue;
    VersionedCell scratch;
    s = ResolveCell(src, id, &scratch, ctx);
    if (!s.ok()) return s;
    ++n;
  }
  if (resolved != nullptr) *resolved = n;
  return Status::OK();
}

Status TxnManager::CountPendingIntents(MachineId src,
                                       std::span<const CellId> ids,
                                       int* count, CallContext* ctx) {
  int n = 0;
  for (CellId id : ids) {
    std::string raw;
    Status s = cloud_->GetCellFrom(src, id, &raw, ctx);
    if (s.IsNotFound()) continue;
    if (!s.ok()) return s;
    VersionedCell cur;
    s = CellCodec::Decode(Slice(raw), &cur);
    if (!s.ok()) return s;
    if (cur.has_intent) ++n;
  }
  *count = n;
  return Status::OK();
}

}  // namespace trinity::txn
