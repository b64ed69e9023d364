#ifndef TRINITY_TXN_TXN_H_
#define TRINITY_TXN_TXN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cloud/memory_cloud.h"
#include "cloud/multiop.h"
#include "common/call_context.h"
#include "common/counters.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/types.h"

namespace trinity::txn {

/// Optimistic snapshot-isolation transactions over the memory cloud — the
/// rung above MultiOp mini-transactions (paper §4.4) that A1-style systems
/// build on a memory cloud: cells carry a commit-timestamp version header,
/// reads record a read set, and commit is a two-phase protocol of guarded
/// MultiOp CASes (write intents → read validation → commit-record flip →
/// intent resolution) with presumed-abort recovery, so a coordinator killed
/// between any two steps leaves no torn state.

/// Decoded state of a versioned cell: the committed value (or tombstone)
/// plus at most one write intent from an in-flight transaction.
struct VersionedCell {
  std::uint64_t version = 0;  ///< Commit timestamp; 0 = never written.
  bool exists = false;        ///< Committed value present (vs tombstone).
  std::string value;
  bool has_intent = false;
  std::uint64_t intent_txn = 0;
  bool intent_remove = false;  ///< Intent is a Remove (else a Put).
  std::string intent_value;
};

/// Wire codec for versioned cells. Payloads written by transactions start
/// with a magic byte; any other payload (cells written by the plain KV API
/// before transactions ever touched them) decodes as a committed value at
/// the reserved legacy version 1, so transactions interoperate with
/// pre-existing data without a migration pass.
class CellCodec {
 public:
  static constexpr std::uint8_t kMagic = 0xA7;
  /// Version assigned to payloads that predate the codec.
  static constexpr std::uint64_t kLegacyVersion = 1;

  static std::string Encode(const VersionedCell& cell);
  /// Never fails on legacy payloads; Corruption only for truncated
  /// magic-prefixed payloads.
  static Status Decode(Slice payload, VersionedCell* out);
};

/// Commit-protocol step boundaries, exposed so chaos tests can kill the
/// coordinator at every point of the two-phase protocol deterministically.
enum class CommitPoint {
  kBeforeIntent,   ///< About to CAS-place the step-th write intent.
  kAfterIntent,    ///< Step-th intent is visible cluster-wide.
  kAfterValidate,  ///< Step-th read-set entry validated.
  kBeforeRecord,   ///< All intents placed + validated; record not written.
  kAfterRecord,    ///< Commit record durable — the transaction IS committed.
  kAfterResolve,   ///< Step-th intent resolved to its committed value.
};

class TxnManager;

/// One optimistic transaction. Not thread-safe; use one per logical
/// operation. Reads see latest-committed state (resolving any orphaned
/// intents they meet) plus this transaction's own buffered writes; Commit
/// validates the read set and either applies every write atomically or
/// none. Obtain via TxnManager::Begin.
class Transaction {
 public:
  Transaction(Transaction&&) = default;

  /// Reads a cell: buffered write if present, else cached read-set entry,
  /// else a committed read recorded into the read set. NotFound for absent
  /// cells and tombstones. Aborted[txn-conflict] means the transaction
  /// should be retried from scratch.
  Status Get(CellId id, std::string* out);
  /// Buffers a put; nothing is visible to others until Commit.
  Status Put(CellId id, Slice value);
  /// Buffers a remove.
  Status Remove(CellId id);

  /// Runs the two-phase commit protocol. Terminal statuses:
  ///  * OK — every write applied atomically at commit_ts().
  ///  * Aborted[txn-conflict] — lost an optimistic race (stale read set,
  ///    first-committer-wins, aborted by a recovery sweep). Retryable at
  ///    the whole-transaction level; all intents rolled back.
  ///  * DeadlineExceeded / ResourceExhausted / Unavailable — infrastructure
  ///    verdict from the CallContext / retry policy.
  /// Calling Commit twice is InvalidArgument.
  Status Commit();

  std::uint64_t txn_id() const { return txn_id_; }
  std::uint64_t begin_ts() const { return begin_ts_; }
  /// Valid after a successful Commit.
  std::uint64_t commit_ts() const { return commit_ts_; }

  /// Test hook, called at every CommitPoint boundary with the step index
  /// (which intent / which validation). Returning false simulates the
  /// coordinator dying on the spot: Commit returns Unavailable immediately
  /// with NO cleanup, leaving exactly the torn state a real kill would.
  void SetCommitHookForTest(
      std::function<bool(CommitPoint, int step)> hook) {
    commit_hook_ = std::move(hook);
  }

 private:
  friend class TxnManager;

  struct ReadEntry {
    std::uint64_t version = 0;
    bool found = false;
    std::string value;
  };
  struct WriteEntry {
    bool remove = false;
    std::string value;
  };

  Transaction(TxnManager* mgr, MachineId src, std::uint64_t txn_id,
              std::uint64_t begin_ts, CallContext* ctx)
      : mgr_(mgr), src_(src), txn_id_(txn_id), begin_ts_(begin_ts),
        ctx_(ctx) {}

  /// The protocol body; may return mid-flight (crashed) with intents down.
  Status TryCommit();
  Status PlaceIntent(CellId id, const WriteEntry& w);
  Status ValidateRead(CellId id, const ReadEntry& r);
  Status WriteCommitRecord();

  /// False ⇒ simulated coordinator death.
  bool Hook(CommitPoint point, int step) {
    return !commit_hook_ || commit_hook_(point, step);
  }

  /// RetryPolicy::Run wrapper for one protocol step: infra failures retry
  /// under the CallContext deadline, txn conflicts stop immediately
  /// (terminal for this transaction even though IsRetryable() is true for
  /// the whole-transaction loop above us).
  Status RunStep(std::uint64_t salt,
                 const std::function<Status()>& attempt);

  enum class State { kActive, kCommitted, kAborted, kCrashed };

  TxnManager* mgr_;
  MachineId src_;
  std::uint64_t txn_id_;
  std::uint64_t begin_ts_;
  std::uint64_t commit_ts_ = 0;
  CallContext* ctx_;
  State state_ = State::kActive;
  bool crashed_ = false;
  std::function<bool(CommitPoint, int)> commit_hook_;
  /// std::map: commit iterates writes in ascending global cell-id order,
  /// the same order every coordinator locks in — no deadlocks, no cycles.
  std::map<CellId, WriteEntry> writes_;
  std::map<CellId, ReadEntry> reads_;
  std::vector<CellId> placed_;  ///< Intents down, in placement order.
};

/// Factory + timestamp oracle + recovery sweeps. One TxnManager per cloud
/// (the oracle is process-local; two managers would collide txn ids).
/// Thread-safe: Begin/recovery helpers may run concurrently.
class TxnManager {
 public:
  /// Commit records live at kRecordBase + txn_id — a reserved id range no
  /// graph/KV workload uses (top 16 bits set).
  static constexpr CellId kRecordBase = 0xFFFF000000000000ULL;
  static CellId RecordCellOf(std::uint64_t txn_id) {
    return kRecordBase + txn_id;
  }

  /// Counters for tests/benchmarks (relaxed atomics).
  struct Stats {
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;        ///< Clean aborts (conflict/validation).
    std::uint64_t rolled_forward = 0; ///< Intents a helper rolled forward.
    std::uint64_t rolled_back = 0;    ///< Intents a helper rolled back.
    std::uint64_t presumed_aborts = 0;///< Abort records written by helpers.
  };

  explicit TxnManager(cloud::MemoryCloud* cloud,
                      RetryPolicy policy = RetryPolicy{})
      : cloud_(cloud), policy_(policy) {}

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Starts a transaction coordinated from `src` (pass a slave id so chaos
  /// tests can kill the coordinator; the client endpoint cannot fail).
  Transaction Begin(MachineId src, CallContext* ctx = nullptr) {
    const std::uint64_t id = NextStamp();
    return Transaction(this, src, id, id, ctx);
  }
  Transaction Begin() { return Begin(cloud_->client_id()); }

  /// Latest-committed read that resolves any orphaned intent it meets (the
  /// post-crash reader): never observes intent state. NotFound for absent
  /// cells and tombstones.
  Status ReadCommitted(MachineId src, CellId id, std::string* out,
                       CallContext* ctx = nullptr);

  /// Recovery sweep: resolves every orphaned intent among `ids` via the
  /// commit record (roll forward) or presumed-abort (roll back). One sweep
  /// leaves zero pending intents on reachable cells. `resolved` (may be
  /// null) counts intents decided.
  Status ResolveIntents(MachineId src, std::span<const CellId> ids,
                        int* resolved, CallContext* ctx = nullptr);

  /// Number of cells among `ids` still carrying a write intent.
  Status CountPendingIntents(MachineId src, std::span<const CellId> ids,
                             int* count, CallContext* ctx = nullptr);

  cloud::MemoryCloud* cloud() const { return cloud_; }
  const RetryPolicy& policy() const { return policy_; }
  Stats stats() const { return stats_.Snapshot(); }

 private:
  friend class Transaction;

  std::uint64_t NextStamp() {
    return stamp_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Reads cell `id` and drives any intent on it to a decision: roll
  /// forward when the commit record says 'C', roll back when it says 'A',
  /// and presumed-abort (CAS an 'A' record in, then roll back) when no
  /// record exists — which wound-aborts a still-running owner: if that
  /// coordinator later tries its commit-record CAS it loses and aborts
  /// cleanly. Exactly one decision wins the record CAS. On return `out`
  /// holds the committed, intent-free state (version 0 / !exists when the
  /// cell is absent).
  Status ResolveCell(MachineId src, CellId id, VersionedCell* out,
                     CallContext* ctx);

  /// CASes the cell from exactly `raw` to its resolved state: the intent's
  /// value at `commit_ts` (roll forward) or the pre-intent committed state
  /// (roll back, removing the cell when it never existed).
  Status ApplyDecision(MachineId src, CellId id, const std::string& raw,
                       const VersionedCell& cur, bool commit,
                       std::uint64_t commit_ts, CallContext* ctx);

  cloud::MemoryCloud* cloud_;
  const RetryPolicy policy_;
  /// Shared sequence for txn ids, begin and commit timestamps. Starts
  /// above CellCodec::kLegacyVersion so legacy cells order before every
  /// transactional write.
  std::atomic<std::uint64_t> stamp_{CellCodec::kLegacyVersion + 1};

  Counters<Stats> stats_;
};

}  // namespace trinity::txn

#endif  // TRINITY_TXN_TXN_H_
