// Snapshot-isolation transaction suite: protocol correctness (read-your-
// writes, repeatable reads, first-committer-wins, read-set validation),
// crash-consistent intent recovery (a coordinator killed between ANY two
// commit steps leaves no torn state — the bank-transfer sum is conserved
// and one recovery sweep clears every orphaned intent), the exactly-one-
// wins decision race between a live coordinator and a presumed-abort
// helper, and chaos runs over the replicated cluster: coordinator and
// participant kills mid-commit, a partition during validation, and
// promotion failover with decided-but-unresolved commits.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/fault_injector.h"
#include "serving/query_frontend.h"
#include "tfs/tfs.h"
#include "txn/txn.h"

namespace trinity {
namespace {

using txn::CommitPoint;
using txn::TxnManager;

// Same sweep hook as chaos_test.cc: scripts/check.sh --chaos-sweep N reruns
// the txn label with TRINITY_CHAOS_SEED_OFFSET=1000, 2000, ...
std::uint64_t SeedOffset() {
  static const std::uint64_t offset = [] {
    const char* env = std::getenv("TRINITY_CHAOS_SEED_OFFSET");
    return env == nullptr ? 0ULL : std::strtoull(env, nullptr, 10);
  }();
  return offset;
}

std::unique_ptr<cloud::MemoryCloud> NewCloud(int slaves = 4) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 1 << 20;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());
  return cloud;
}

struct ChaosCluster {
  std::unique_ptr<tfs::Tfs> tfs;
  std::unique_ptr<net::FaultInjector> injector;
  std::unique_ptr<cloud::MemoryCloud> cloud;
};

ChaosCluster NewReplicatedCluster(const std::string& tag, std::uint64_t seed,
                                  int replication_factor = 2,
                                  int slaves = 4) {
  ChaosCluster c;
  tfs::Tfs::Options tfs_options;
  tfs_options.root = ::testing::TempDir() + "/txn_" + tag + "_" +
                     std::to_string(seed) + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(tfs_options.root);
  EXPECT_TRUE(tfs::Tfs::Open(tfs_options, &c.tfs).ok());
  c.injector = std::make_unique<net::FaultInjector>(seed);
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  options.tfs = c.tfs.get();
  options.replication_factor = replication_factor;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &c.cloud).ok());
  c.cloud->fabric().SetFaultInjector(c.injector.get());
  return c;
}

void DrainCrashSchedule(ChaosCluster& c, MachineId victim) {
  for (int i = 0; i < 128 && c.cloud->fabric().IsMachineUp(victim); ++i) {
    std::string pong;
    c.cloud->fabric().Call(c.cloud->client_id(), victim,
                           cloud::kHeartbeatHandler, Slice(), &pong);
  }
}

void HealReplicated(ChaosCluster& c) {
  c.cloud->DetectAndRecover();
  for (MachineId m = 0; m < c.cloud->num_slaves(); ++m) {
    if (!c.cloud->fabric().IsMachineUp(m)) {
      ASSERT_TRUE(c.cloud->RestartMachine(m).ok());
    }
  }
  c.cloud->DetectAndRecover();
  const Status audit = c.cloud->Audit();
  ASSERT_TRUE(audit.ok()) << audit.ToString();
}

// --------------------------------------------------------- bank fixtures

constexpr CellId kRateCell = 900;  ///< Read-but-never-written config cell.

void SeedAccounts(cloud::MemoryCloud* cloud, const std::vector<CellId>& ids,
                  int balance) {
  for (CellId id : ids) {
    ASSERT_TRUE(cloud->PutCell(id, Slice(std::to_string(balance))).ok());
  }
  ASSERT_TRUE(cloud->PutCell(kRateCell, Slice("rate:1")).ok());
}

long CommittedBalance(TxnManager& mgr, CellId id) {
  std::string v;
  Status s = mgr.ReadCommitted(mgr.cloud()->client_id(), id, &v);
  EXPECT_TRUE(s.ok()) << "account " << id << ": " << s.ToString();
  return s.ok() ? std::stol(v) : -1;
}

long CommittedSum(TxnManager& mgr, const std::vector<CellId>& ids) {
  long sum = 0;
  for (CellId id : ids) sum += CommittedBalance(mgr, id);
  return sum;
}

/// One bank transfer: reads the rate cell (pure read-set entry, so commit
/// exercises the validation phase) and both accounts, then rewrites the
/// accounts. Every CommitPoint of the two-phase protocol fires.
Status Transfer(TxnManager& mgr, MachineId src, CellId from, CellId to,
                long amount,
                std::function<bool(CommitPoint, int)> hook = nullptr) {
  txn::Transaction t = mgr.Begin(src);
  std::string rate, fv, tv;
  Status s = t.Get(kRateCell, &rate);
  if (!s.ok()) return s;
  s = t.Get(from, &fv);
  if (!s.ok()) return s;
  s = t.Get(to, &tv);
  if (!s.ok()) return s;
  t.Put(from, std::to_string(std::stol(fv) - amount));
  t.Put(to, std::to_string(std::stol(tv) + amount));
  if (hook) t.SetCommitHookForTest(std::move(hook));
  return t.Commit();
}

// ------------------------------------------------------------ status unit

TEST(TxnStatusTest, SubcodesDriveRetryability) {
  const Status conflict =
      Status::Aborted("lost race", Status::Subcode::kTxnConflict);
  EXPECT_TRUE(conflict.IsAborted());
  EXPECT_TRUE(conflict.IsTxnConflict());
  EXPECT_TRUE(conflict.IsRetryable());  // Contended transactions retry.
  EXPECT_NE(conflict.ToString().find("[txn-conflict]"), std::string::npos);

  const Status fenced =
      Status::Aborted("deposed", Status::Subcode::kFenced);
  EXPECT_TRUE(fenced.IsFenced());
  EXPECT_FALSE(fenced.IsRetryable());  // Fenced writes stay terminal.

  const Status guard =
      Status::Aborted("mismatch", Status::Subcode::kGuardFailed);
  EXPECT_TRUE(guard.IsGuardFailed());
  EXPECT_FALSE(guard.IsRetryable());

  EXPECT_FALSE(Status::Aborted("plain").IsTxnConflict());
}

// -------------------------------------------------------------- protocol

TEST(TxnBasicTest, CommitAppliesAllWritesAtomically) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  const std::vector<CellId> accounts = {1, 2};
  SeedAccounts(cloud.get(), accounts, 100);

  ASSERT_TRUE(Transfer(mgr, cloud->client_id(), 1, 2, 30).ok());
  EXPECT_EQ(CommittedBalance(mgr, 1), 70);
  EXPECT_EQ(CommittedBalance(mgr, 2), 130);
  EXPECT_EQ(mgr.stats().committed, 1u);

  // No intents linger after a clean commit.
  int pending = -1;
  ASSERT_TRUE(mgr.CountPendingIntents(cloud->client_id(), accounts, &pending)
                  .ok());
  EXPECT_EQ(pending, 0);
}

TEST(TxnBasicTest, ReadYourWritesAndRepeatableReads) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  ASSERT_TRUE(cloud->PutCell(1, Slice("before")).ok());

  txn::Transaction t = mgr.Begin();
  std::string v;
  ASSERT_TRUE(t.Get(1, &v).ok());
  EXPECT_EQ(v, "before");
  ASSERT_TRUE(t.Put(1, Slice("buffered")).ok());
  ASSERT_TRUE(t.Get(1, &v).ok());
  EXPECT_EQ(v, "buffered");  // Read-your-writes from the buffer.

  txn::Transaction r = mgr.Begin();
  ASSERT_TRUE(r.Get(1, &v).ok());
  EXPECT_EQ(v, "before");  // Nothing visible before commit.
  // Repeatable: the cached read-set entry answers, not the cloud.
  ASSERT_TRUE(r.Get(1, &v).ok());
  EXPECT_EQ(v, "before");

  ASSERT_TRUE(t.Commit().ok());
  ASSERT_TRUE(mgr.ReadCommitted(cloud->client_id(), 1, &v).ok());
  EXPECT_EQ(v, "buffered");
}

TEST(TxnBasicTest, RemoveCommitsTombstone) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  ASSERT_TRUE(cloud->PutCell(5, Slice("doomed")).ok());

  txn::Transaction t = mgr.Begin();
  ASSERT_TRUE(t.Remove(5).ok());
  ASSERT_TRUE(t.Commit().ok());

  std::string v;
  EXPECT_TRUE(mgr.ReadCommitted(cloud->client_id(), 5, &v).IsNotFound());
  // The tombstone keeps its commit version (anti-ABA): the raw cell still
  // exists and decodes as a versioned non-value.
  std::string raw;
  ASSERT_TRUE(cloud->GetCell(5, &raw).ok());
  txn::VersionedCell cell;
  ASSERT_TRUE(txn::CellCodec::Decode(Slice(raw), &cell).ok());
  EXPECT_FALSE(cell.exists);
  EXPECT_GT(cell.version, txn::CellCodec::kLegacyVersion);
}

TEST(TxnBasicTest, LegacyCellsInteroperate) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  ASSERT_TRUE(cloud->PutCell(9, Slice("plain-kv")).ok());

  // A transaction reads the pre-transactional payload as committed state...
  txn::Transaction t = mgr.Begin();
  std::string v;
  ASSERT_TRUE(t.Get(9, &v).ok());
  EXPECT_EQ(v, "plain-kv");
  ASSERT_TRUE(t.Put(9, Slice("upgraded")).ok());
  ASSERT_TRUE(t.Commit().ok());

  // ...and after the first transactional write the cell carries the codec;
  // raw readers must go through ReadCommitted/Decode from then on.
  std::string raw;
  ASSERT_TRUE(cloud->GetCell(9, &raw).ok());
  txn::VersionedCell cell;
  ASSERT_TRUE(txn::CellCodec::Decode(Slice(raw), &cell).ok());
  EXPECT_TRUE(cell.exists);
  EXPECT_EQ(cell.value, "upgraded");
}

TEST(TxnBasicTest, CommitTwiceIsInvalid) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  txn::Transaction t = mgr.Begin();
  ASSERT_TRUE(t.Put(1, Slice("x")).ok());
  ASSERT_TRUE(t.Commit().ok());
  EXPECT_TRUE(t.Commit().IsInvalidArgument());
  EXPECT_TRUE(t.Put(2, Slice("y")).IsInvalidArgument());
}

// -------------------------------------------------------------- conflicts

TEST(TxnConflictTest, FirstCommitterWinsOnWriteWrite) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  ASSERT_TRUE(cloud->PutCell(1, Slice("0")).ok());

  txn::Transaction t1 = mgr.Begin();
  txn::Transaction t2 = mgr.Begin();
  std::string v;
  ASSERT_TRUE(t1.Get(1, &v).ok());
  ASSERT_TRUE(t2.Get(1, &v).ok());
  ASSERT_TRUE(t1.Put(1, Slice("t1")).ok());
  ASSERT_TRUE(t2.Put(1, Slice("t2")).ok());

  ASSERT_TRUE(t1.Commit().ok());
  const Status s = t2.Commit();
  EXPECT_TRUE(s.IsTxnConflict()) << s.ToString();
  EXPECT_TRUE(s.IsRetryable());

  ASSERT_TRUE(mgr.ReadCommitted(cloud->client_id(), 1, &v).ok());
  EXPECT_EQ(v, "t1");
  EXPECT_EQ(mgr.stats().committed, 1u);
  EXPECT_EQ(mgr.stats().aborted, 1u);
}

TEST(TxnConflictTest, ReadSetValidationCatchesStaleRead) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  ASSERT_TRUE(cloud->PutCell(1, Slice("a")).ok());
  ASSERT_TRUE(cloud->PutCell(2, Slice("b")).ok());

  // t reads cell 2 but writes only cell 1; a concurrent commit to cell 2
  // must fail t's validation even though their write sets are disjoint.
  txn::Transaction t = mgr.Begin();
  std::string v;
  ASSERT_TRUE(t.Get(2, &v).ok());
  ASSERT_TRUE(t.Put(1, Slice("a2")).ok());

  txn::Transaction other = mgr.Begin();
  ASSERT_TRUE(other.Put(2, Slice("b2")).ok());
  ASSERT_TRUE(other.Commit().ok());

  EXPECT_TRUE(t.Commit().IsTxnConflict());
  ASSERT_TRUE(mgr.ReadCommitted(cloud->client_id(), 1, &v).ok());
  EXPECT_EQ(v, "a");  // t's write rolled back with the abort.
}

TEST(TxnConflictTest, LiveCoordinatorLosesDecisionRaceCleanly) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  const std::vector<CellId> accounts = {1, 2};
  SeedAccounts(cloud.get(), accounts, 100);

  // t1 pauses with its intents placed but no commit record; a full t2
  // transfer over the same accounts runs inside the pause, presumed-aborts
  // t1 (writing t1's 'A' record), and commits. When t1 resumes, its own
  // record CAS must lose and report the wound — never a double apply.
  Status t2_status = Status::NotFound("not run");
  const Status t1_status = Transfer(
      mgr, cloud->client_id(), 1, 2, 10,
      [&](CommitPoint point, int) {
        if (point == CommitPoint::kBeforeRecord && t2_status.IsNotFound()) {
          t2_status = Transfer(mgr, cloud->client_id(), 1, 2, 25);
        }
        return true;
      });
  ASSERT_TRUE(t2_status.ok()) << t2_status.ToString();
  EXPECT_TRUE(t1_status.IsTxnConflict()) << t1_status.ToString();
  EXPECT_EQ(CommittedBalance(mgr, 1), 75);   // Only t2 applied.
  EXPECT_EQ(CommittedBalance(mgr, 2), 125);
  EXPECT_GT(mgr.stats().presumed_aborts, 0u);
}

// ------------------------------------------------- crash-point sweep

// The robustness core: kill the coordinator at EVERY step boundary of both
// commit phases in turn, and after each kill assert (a) the bank sum is
// conserved — all-or-none, a half-applied transfer would break it; (b) one
// recovery sweep resolves every orphaned intent; (c) post-sweep readers see
// no intent; (d) a kill after the commit record landed yields the fully
// applied transfer (decided commits are never lost), a kill before yields
// the untouched balances (presumed abort).
TEST(TxnCrashSweepTest, CoordinatorKilledAtEveryCrashPointLeavesNoTornState) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  std::vector<CellId> accounts;
  for (CellId id = 1; id <= 8; ++id) accounts.push_back(id);
  SeedAccounts(cloud.get(), accounts, 100);
  const long kSum = 800;
  std::vector<CellId> audit = accounts;
  audit.push_back(kRateCell);

  int kill = 0;
  int swept_points = 0;
  for (;; ++kill) {
    SCOPED_TRACE("crash point " + std::to_string(kill));
    const CellId from = accounts[static_cast<std::size_t>(kill) % 8];
    const CellId to = accounts[static_cast<std::size_t>(kill + 3) % 8];
    const long from_before = CommittedBalance(mgr, from);
    const long to_before = CommittedBalance(mgr, to);

    int step = 0;
    bool fired = false;
    bool decided = false;  // Record written before the kill?
    const Status s = Transfer(
        mgr, cloud->client_id(), from, to, 5,
        [&](CommitPoint point, int) {
          if (point == CommitPoint::kAfterRecord ||
              point == CommitPoint::kAfterResolve) {
            decided = true;
          }
          if (step++ == kill) {
            fired = true;
            return false;
          }
          return true;
        });
    if (!fired) {
      // Swept past the final crash point: this run committed untouched.
      ASSERT_TRUE(s.ok()) << s.ToString();
      swept_points = kill;
      break;
    }
    ASSERT_FALSE(s.ok());

    // One recovery sweep resolves everything the kill left behind.
    int resolved = 0;
    ASSERT_TRUE(
        mgr.ResolveIntents(cloud->client_id(), audit, &resolved).ok());
    int pending = -1;
    ASSERT_TRUE(
        mgr.CountPendingIntents(cloud->client_id(), audit, &pending).ok());
    EXPECT_EQ(pending, 0) << "intents survived a full recovery sweep";

    // All-or-none, with the direction pinned by the commit record.
    const long from_after = CommittedBalance(mgr, from);
    const long to_after = CommittedBalance(mgr, to);
    EXPECT_EQ(CommittedSum(mgr, accounts), kSum);
    if (decided) {
      EXPECT_EQ(from_after, from_before - 5) << "decided commit lost";
      EXPECT_EQ(to_after, to_before + 5);
    } else {
      EXPECT_EQ(from_after, from_before) << "undecided txn partially applied";
      EXPECT_EQ(to_after, to_before);
    }
  }
  // 2 intents + 1 validation + record + 2 resolutions, with before/after
  // boundaries: the sweep must have covered both phases.
  EXPECT_GE(swept_points, 8);
  EXPECT_EQ(CommittedSum(mgr, accounts), kSum);
}

// Orphaned intents with no record are invisible to readers: the first
// ReadCommitted lazily presumed-aborts them, before any sweep runs.
TEST(TxnRecoveryTest, PostCrashReaderNeverObservesIntents) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  const std::vector<CellId> accounts = {1, 2};
  SeedAccounts(cloud.get(), accounts, 100);

  // Die with both intents placed, record absent.
  const Status s = Transfer(mgr, cloud->client_id(), 1, 2, 40,
                            [&](CommitPoint point, int) {
                              return point != CommitPoint::kBeforeRecord;
                            });
  ASSERT_FALSE(s.ok());
  int pending = -1;
  ASSERT_TRUE(
      mgr.CountPendingIntents(cloud->client_id(), accounts, &pending).ok());
  EXPECT_EQ(pending, 2);

  // Lazy resolution: plain committed reads decide abort and see the
  // pre-transfer balances, no sweep needed.
  EXPECT_EQ(CommittedBalance(mgr, 1), 100);
  EXPECT_EQ(CommittedBalance(mgr, 2), 100);
  ASSERT_TRUE(
      mgr.CountPendingIntents(cloud->client_id(), accounts, &pending).ok());
  EXPECT_EQ(pending, 0);
  EXPECT_GT(mgr.stats().presumed_aborts, 0u);
}

TEST(TxnRecoveryTest, DecidedCommitRollsForwardAfterCoordinatorDeath) {
  auto cloud = NewCloud();
  TxnManager mgr(cloud.get());
  const std::vector<CellId> accounts = {1, 2};
  SeedAccounts(cloud.get(), accounts, 100);

  // Die right after the commit record landed: intents unresolved, but the
  // transaction IS committed and every reader must roll it forward.
  const Status s = Transfer(mgr, cloud->client_id(), 1, 2, 40,
                            [&](CommitPoint point, int) {
                              return point != CommitPoint::kAfterRecord;
                            });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(CommittedBalance(mgr, 1), 60);
  EXPECT_EQ(CommittedBalance(mgr, 2), 140);
  EXPECT_GT(mgr.stats().rolled_forward, 0u);
}

// ---------------------------------------------------------------- serving

TEST(TxnFrontendTest, ContendedTransactionsRetryToCommit) {
  auto cloud = NewCloud();
  serving::QueryFrontend::Options options;
  serving::QueryFrontend frontend(cloud.get(), nullptr, options);
  ASSERT_TRUE(cloud->PutCell(1, Slice("0")).ok());

  // 4 threads × 10 increments of one hot cell through the frontend. Each
  // request retries internally on conflict; a request that still exhausts
  // its budget is re-submitted, so exactly 40 commits must land.
  constexpr int kThreads = 4, kPerThread = 10;
  std::atomic<int> resubmits{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Status s;
        do {
          s = frontend.ExecuteTransaction([](txn::Transaction& t) {
            std::string v;
            Status g = t.Get(1, &v);
            if (!g.ok()) return g;
            return t.Put(1, Slice(std::to_string(std::stol(v) + 1)));
          });
          if (!s.ok()) resubmits.fetch_add(1);
        } while (!s.ok());
      }
    });
  }
  for (auto& t : workers) t.join();

  std::string v;
  ASSERT_TRUE(frontend.txn_manager()
                  ->ReadCommitted(cloud->client_id(), 1, &v)
                  .ok());
  EXPECT_EQ(v, std::to_string(kThreads * kPerThread));
  const serving::ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.txn_committed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  // Terminal outcomes partition received: committed + terminal conflicts
  // (each of which the loop above re-submitted).
  EXPECT_EQ(stats.received, stats.txn_committed + stats.txn_conflicts);
  EXPECT_EQ(stats.txn_conflicts, static_cast<std::uint64_t>(resubmits.load()));
}

// ------------------------------------------------------------------ chaos

class TxnChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

// Kills (coordinator and participant alike) + flaky replication traffic
// while transfers run from random slave coordinators. After each round the
// cluster heals, one sweep clears every orphaned intent, and the bank sum
// is conserved — regardless of where in the two-phase protocol the victim
// died.
TEST_P(TxnChaosTest, TransfersSurviveKillsMidCommit) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  ChaosCluster c = NewReplicatedCluster("kill", seed);
  TxnManager mgr(c.cloud.get());
  Random rng(seed * 0x9e3779b97f4a7c15ULL + 17);

  std::vector<CellId> accounts;
  for (CellId id = 1; id <= 16; ++id) accounts.push_back(id);
  SeedAccounts(c.cloud.get(), accounts, 100);
  const long kSum = 1600;
  std::vector<CellId> audit = accounts;
  audit.push_back(kRateCell);

  net::FaultInjector::Policy flaky;
  flaky.call_fail_prob = 0.05;
  flaky.call_timeout_prob = 0.03;

  const int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    c.injector->SetHandlerRangePolicy(cloud::kReplicaApplyHandler,
                                      cloud::kIsrShrinkHandler, flaky);
    const MachineId victim =
        static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
    c.injector->CrashAfter(victim, 1 + rng.Uniform(60));

    for (int op = 0; op < 20; ++op) {
      // Coordinator = a random slave: when the victim's countdown expires
      // under it this is a coordinator kill, when the victim owns one of
      // the cells it is a participant kill — both happen across seeds.
      const MachineId src =
          static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
      const CellId from = accounts[rng.Uniform(accounts.size())];
      CellId to = accounts[rng.Uniform(accounts.size())];
      if (to == from) to = accounts[(from % accounts.size())];
      if (to == from) continue;
      (void)Transfer(mgr, src, from, to, 1 + rng.Uniform(5));
    }

    c.injector->ClearPolicies();
    DrainCrashSchedule(c, victim);
    HealReplicated(c);

    int resolved = 0;
    ASSERT_TRUE(
        mgr.ResolveIntents(c.cloud->client_id(), audit, &resolved).ok());
    int pending = -1;
    ASSERT_TRUE(
        mgr.CountPendingIntents(c.cloud->client_id(), audit, &pending).ok());
    ASSERT_EQ(pending, 0)
        << "seed " << seed << ": intents survived a full recovery sweep";
    ASSERT_EQ(CommittedSum(mgr, accounts), kSum)
        << "seed " << seed << ": transfer torn by crash of " << victim;
  }
  // Failovers were absorbed by in-memory replicas, not TFS reloads.
  EXPECT_EQ(c.cloud->recovery_stats().tfs_fallback_reloads, 0u);
}

// Partition mid-validation: after the coordinator's reads validate, its
// machine is cut off and deposed (trunks promoted away, epochs bumped).
// The stale coordinator's commit must land in the write fence or die
// Unavailable — terminal either way — while replica reads stay available
// to everyone else; after the cut heals, one sweep restores a clean state.
TEST_P(TxnChaosTest, PartitionMidValidationFencesStaleCoordinator) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  ChaosCluster c = NewReplicatedCluster("part", seed);
  TxnManager mgr(c.cloud.get());

  std::vector<CellId> accounts;
  for (CellId id = 1; id <= 8; ++id) accounts.push_back(id);
  SeedAccounts(c.cloud.get(), accounts, 100);
  const long kSum = 800;
  std::vector<CellId> audit = accounts;
  audit.push_back(kRateCell);

  // Coordinator 2 (never the leader, machine 0, so the leader keeps
  // serving promotions from the majority side).
  const MachineId coord = 2;
  std::vector<MachineId> minority = {coord};
  std::vector<MachineId> majority;
  for (MachineId m = 0; m < c.cloud->num_endpoints(); ++m) {
    if (m != coord) majority.push_back(m);
  }

  bool cut = false;
  const Status s = Transfer(
      mgr, coord, 1, 2, 10, [&](CommitPoint point, int) {
        if (point == CommitPoint::kAfterValidate && !cut) {
          cut = true;
          c.injector->Partition(minority, majority);
          // The majority deposes the unreachable coordinator: its trunks
          // promote away and every epoch bump fences its write path.
          c.cloud->DetectAndRecover();
          // Degraded mode on the majority side: committed reads still work
          // while the partition is up.
          std::string v;
          EXPECT_TRUE(
              mgr.ReadCommitted(c.cloud->client_id(), kRateCell, &v).ok());
        }
        return true;
      });
  ASSERT_TRUE(cut);
  ASSERT_FALSE(s.ok()) << "stale coordinator committed through a partition";
  EXPECT_TRUE(s.IsFenced() || s.IsUnavailable() || s.IsTimedOut() ||
              s.IsTxnConflict())
      << s.ToString();

  c.injector->ClearPartitions();
  c.cloud->DetectAndRecover();
  int resolved = 0;
  ASSERT_TRUE(
      mgr.ResolveIntents(c.cloud->client_id(), audit, &resolved).ok());
  int pending = -1;
  ASSERT_TRUE(
      mgr.CountPendingIntents(c.cloud->client_id(), audit, &pending).ok());
  EXPECT_EQ(pending, 0);
  EXPECT_EQ(CommittedSum(mgr, accounts), kSum) << "seed " << seed;
}

// Promotion mid-resolution: the coordinator dies AFTER the commit record
// landed but before resolving intents, then the machine holding an intent
// cell fails and a replica is promoted. The decided commit must survive
// the failover: the promoted replica serves the intent, readers roll it
// forward from the record, and the transfer is fully applied.
TEST_P(TxnChaosTest, DecidedCommitsSurvivePromotionFailover) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  ChaosCluster c = NewReplicatedCluster("promote", seed);
  TxnManager mgr(c.cloud.get());

  std::vector<CellId> accounts = {1, 2};
  SeedAccounts(c.cloud.get(), accounts, 100);

  const Status s = Transfer(mgr, c.cloud->client_id(), 1, 2, 40,
                            [&](CommitPoint point, int) {
                              return point != CommitPoint::kAfterRecord;
                            });
  ASSERT_FALSE(s.ok());

  // Fail the machine holding account 1's intent; promotion is a metadata
  // flip over the in-memory replica (no TFS reads).
  const MachineId owner = c.cloud->MachineOf(1);
  ASSERT_TRUE(c.cloud->FailMachine(owner).ok());
  const tfs::Tfs::Stats before = c.tfs->stats();
  ASSERT_GE(c.cloud->DetectAndRecover(), 1);
  EXPECT_EQ(c.tfs->stats().files_read, before.files_read)
      << "promotion read trunk data from TFS";

  EXPECT_EQ(CommittedBalance(mgr, 1), 60) << "decided commit lost, seed "
                                          << seed;
  EXPECT_EQ(CommittedBalance(mgr, 2), 140);
  int pending = -1;
  ASSERT_TRUE(
      mgr.CountPendingIntents(c.cloud->client_id(), accounts, &pending).ok());
  EXPECT_EQ(pending, 0);
  EXPECT_GT(c.cloud->recovery_stats().promotions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnChaosTest,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace trinity
