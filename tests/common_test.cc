#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/serializer.h"
#include "common/slice.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "net/network_stats.h"
#include "serving/serving_stats.h"
#include "storage/memory_trunk.h"
#include "tfs/tfs.h"
#include "txn/txn.h"

namespace trinity {
namespace {

// Prevents the optimizer from discarding busy-work loops in timing tests.
volatile double benchmarkish_sink = 0;

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing cell");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsIOError());
  EXPECT_EQ(s.ToString(), "NotFound: missing cell");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::AlreadyExists("").IsAlreadyExists());
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("").IsIOError());
  EXPECT_TRUE(Status::OutOfMemory("").IsOutOfMemory());
  EXPECT_TRUE(Status::Unavailable("").IsUnavailable());
  EXPECT_TRUE(Status::TimedOut("").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_TRUE(Status::NotSupported("").IsNotSupported());
}

TEST(SliceTest, BasicViews) {
  const std::string data = "hello world";
  Slice s(data);
  EXPECT_EQ(s.size(), data.size());
  EXPECT_EQ(s.ToString(), data);
  s.RemovePrefix(6);
  EXPECT_EQ(s.ToString(), "world");
  EXPECT_EQ(s[0], 'w');
}

TEST(SliceTest, Comparison) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice().Compare(Slice()), 0);
}

TEST(HashTest, TrunkHashCoversRange) {
  const int p = 6;
  std::vector<int> hits(1 << p, 0);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const std::uint32_t trunk = TrunkHash(key, p);
    ASSERT_LT(trunk, 1u << p);
    ++hits[trunk];
  }
  // Every trunk should receive a reasonable share (10000/64 ~ 156).
  for (int count : hits) {
    EXPECT_GT(count, 60);
    EXPECT_LT(count, 320);
  }
}

TEST(HashTest, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  EXPECT_NE(InTrunkHash(42), Mix64(42));
}

TEST(RandomTest, DeterministicUnderSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, PowerLawIsSkewed) {
  Random rng(3);
  const std::uint64_t max_value = 1000;
  int small = 0, large = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.PowerLaw(2.16, max_value);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, max_value);
    if (v <= 2) ++small;
    if (v >= 100) ++large;
  }
  // Power law with gamma ~2.16: most mass at the head, thin tail.
  EXPECT_GT(small, 10000);
  EXPECT_LT(large, 1500);
  EXPECT_GT(large, 0);
}

TEST(SerializerTest, RoundTripsAllTypes) {
  BinaryWriter writer;
  writer.PutU8(7);
  writer.PutU16(65535);
  writer.PutU32(123456);
  writer.PutU64(0xdeadbeefcafef00dULL);
  writer.PutI32(-42);
  writer.PutI64(-1234567890123LL);
  writer.PutDouble(3.25);
  writer.PutString("trinity");
  const std::string buffer = writer.Release();

  BinaryReader reader{Slice(buffer)};
  std::uint8_t u8;
  std::uint16_t u16;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int32_t i32;
  std::int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(reader.GetU8(&u8));
  ASSERT_TRUE(reader.GetU16(&u16));
  ASSERT_TRUE(reader.GetU32(&u32));
  ASSERT_TRUE(reader.GetU64(&u64));
  ASSERT_TRUE(reader.GetI32(&i32));
  ASSERT_TRUE(reader.GetI64(&i64));
  ASSERT_TRUE(reader.GetDouble(&d));
  ASSERT_TRUE(reader.GetString(&s));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65535);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "trinity");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializerTest, UnderflowFailsCleanly) {
  BinaryWriter writer;
  writer.PutU16(1);
  BinaryReader reader{Slice(writer.buffer())};
  std::uint64_t v;
  EXPECT_FALSE(reader.GetU64(&v));
  std::uint16_t u;
  EXPECT_TRUE(reader.GetU16(&u));
  EXPECT_FALSE(reader.GetU16(&u));
}

TEST(SerializerTest, BytesAreZeroCopyViews) {
  BinaryWriter writer;
  writer.PutBytes(Slice("payload"));
  const std::string buffer = writer.buffer();
  BinaryReader reader{Slice(buffer)};
  Slice view;
  ASSERT_TRUE(reader.GetBytes(&view));
  EXPECT_GE(view.data(), buffer.data());
  EXPECT_LT(view.data(), buffer.data() + buffer.size());
  EXPECT_EQ(view.ToString(), "payload");
}

TEST(SerializerTest, TruncatedLengthPrefixFails) {
  BinaryWriter writer;
  writer.PutU32(1000);  // Claims 1000 bytes; none follow.
  BinaryReader reader{Slice(writer.buffer())};
  Slice view;
  EXPECT_FALSE(reader.GetBytes(&view));
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        SpinLockGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 80000);
}

TEST(SpinLockTest, TryLockReflectsState) {
  SpinLock lock;
  EXPECT_TRUE(lock.TryLock());
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

// A one-thread pool starts no worker: its tasks run inline on the caller.
TEST(ThreadPoolTest, RunsAllTasks) {
  for (int threads : {1, 3}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> done{0};
    std::atomic<int> on_caller{0};
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] {
        done.fetch_add(1);
        if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
      });
    }
    pool.WaitIdle();
    EXPECT_EQ(done.load(), 100);
    EXPECT_EQ(on_caller.load(), threads == 1 ? 100 : 0);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndNegativeAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  pool.ParallelFor(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSingleItemRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(1, [&](int) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, NestedSubmitDuringWaitIdle) {
  // A task submitted from inside a task must complete before WaitIdle
  // returns — the barrier covers transitively spawned work.
  for (int threads : {1, 3}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    std::atomic<int> done{0};
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] {
        done.fetch_add(1);
        pool.Submit([&] { done.fetch_add(1); });
      });
    }
    pool.WaitIdle();
    EXPECT_EQ(done.load(), 20);
  }
}

TEST(ThreadPoolTest, SplitWeightedBalancesSkewedCosts) {
  // One huge item followed by many tiny ones: equal-count chunking would
  // put the hub and half the tail in one shard. Weighted splitting must
  // isolate the hub so no shard greatly exceeds the ideal cost.
  const int n = 1000;
  const auto cost = [](int i) { return i == 0 ? 1000.0 : 1.0; };
  const auto shards = ThreadPool::SplitWeighted(n, cost, 8);
  ASSERT_GE(shards.size(), 2u);
  ASSERT_LE(shards.size(), 8u);
  // Shards tile [0, n) exactly.
  int expect_begin = 0;
  double total = 0;
  double max_shard = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_GT(s.end, s.begin);
    expect_begin = s.end;
    double c = 0;
    for (int i = s.begin; i < s.end; ++i) c += cost(i);
    total += c;
    max_shard = std::max(max_shard, c);
  }
  EXPECT_EQ(expect_begin, n);
  // The hub item is unavoidable (1000), but no shard may exceed the ideal
  // (total/8 ≈ 250) by more than that one indivisible item.
  EXPECT_LE(max_shard, total / 8 + 1000.0);
  // And the tail must actually be spread: the hub's shard is just the hub.
  double tail_max = 0;
  for (const auto& s : shards) {
    if (s.begin == 0) {
      continue;
    }
    double c = 0;
    for (int i = s.begin; i < s.end; ++i) c += cost(i);
    tail_max = std::max(tail_max, c);
  }
  EXPECT_LE(tail_max, 2 * (total - 1000.0) / 7 + 1.0);
}

TEST(ThreadPoolTest, SplitWeightedEdgeCases) {
  // Zero or negative total cost falls back to equal-count chunks.
  const auto zero = ThreadPool::SplitWeighted(10, [](int) { return 0.0; }, 4);
  int covered = 0;
  for (const auto& s : zero) covered += s.end - s.begin;
  EXPECT_EQ(covered, 10);
  EXPECT_TRUE(ThreadPool::SplitWeighted(0, [](int) { return 1.0; }, 4).empty());
  const auto one = ThreadPool::SplitWeighted(1, [](int) { return 5.0; }, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 0);
  EXPECT_EQ(one[0].end, 1);
  // max_shards == 1 keeps everything together.
  const auto single =
      ThreadPool::SplitWeighted(100, [](int) { return 1.0; }, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].end, 100);
}

TEST(ThreadPoolTest, WeightedParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(
      257, [&](int i) { hits[i].fetch_add(1); },
      [](int i) { return i < 3 ? 1000.0 : 1.0; });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForShardsReportsShardIndices) {
  ThreadPool pool(3);
  const std::vector<ThreadPool::Shard> shards = {{0, 5}, {5, 6}, {6, 20}};
  std::vector<std::atomic<int>> hits(20);
  std::atomic<int> shard_mask{0};
  pool.ParallelForShards(shards, [&](int shard, int begin, int end) {
    shard_mask.fetch_or(1 << shard);
    for (int i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(shard_mask.load(), 0b111);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(HistogramTest, MergeFoldsShardSamples) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 50; ++i) a.Add(i);
  for (int i = 51; i <= 100; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.Min(), 1.0);
  EXPECT_DOUBLE_EQ(a.Max(), 100.0);
  EXPECT_NEAR(a.Percentile(50), 50.5, 0.01);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(99), 99.01, 0.1);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch watch;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  benchmarkish_sink = sink;
  EXPECT_GT(watch.ElapsedMicros(), 0.0);
}

// ------------------------------------------------------------ Counters

template <class T>
using Fields = std::vector<std::uint64_t T::*>;

template <class T>
std::array<std::uint64_t, sizeof(T) / sizeof(std::uint64_t)> WordsOf(
    const T& value) {
  return std::bit_cast<
      std::array<std::uint64_t, sizeof(T) / sizeof(std::uint64_t)>>(value);
}

// Each field added through its member pointer comes back at that field and
// moves no other word of the snapshot.
template <class T>
void ExpectEachFieldIsolated(const Fields<T>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    Counters<T> counters;
    counters.Add(fields[i], 5);
    counters.Add(fields[i], 2);
    const T snap = counters.Snapshot();
    for (std::size_t j = 0; j < fields.size(); ++j) {
      EXPECT_EQ(snap.*fields[j], i == j ? 7u : 0u)
          << "added field " << i << ", read field " << j;
    }
    const auto words = WordsOf(snap);
    EXPECT_EQ(std::count(words.begin(), words.end(), 0u),
              static_cast<std::ptrdiff_t>(words.size() - 1))
        << "field " << i << " also moved another word";
  }
}

TEST(CountersTest, NetworkStatsFieldsAreIsolated) {
  using S = net::NetworkStats;
  const Fields<S> fields = {&S::messages, &S::transfers, &S::bytes,
      &S::sync_calls, &S::local_messages, &S::dropped, &S::injected_drops,
      &S::injected_duplicates, &S::injected_call_failures, &S::injected_crashes,
      &S::delayed_flushes, &S::injected_call_delays};
  ASSERT_EQ(fields.size(), sizeof(S) / sizeof(std::uint64_t));
  ExpectEachFieldIsolated(fields);
}

TEST(CountersTest, RecoveryStatsFieldsAreIsolated) {
  using S = net::RecoveryStats;
  const Fields<S> fields = {&S::promotions, &S::last_promote_micros,
      &S::last_full_replication_micros, &S::bytes_rereplicated,
      &S::trunks_rereplicated, &S::degraded_reads, &S::fenced_writes,
      &S::tfs_fallback_reloads};
  ASSERT_EQ(fields.size(), sizeof(S) / sizeof(std::uint64_t));
  ExpectEachFieldIsolated(fields);
}

TEST(CountersTest, TxnStatsFieldsAreIsolated) {
  using S = txn::TxnManager::Stats;
  const Fields<S> fields = {&S::committed, &S::aborted, &S::rolled_forward,
      &S::rolled_back, &S::presumed_aborts};
  ASSERT_EQ(fields.size(), sizeof(S) / sizeof(std::uint64_t));
  ExpectEachFieldIsolated(fields);
}

TEST(CountersTest, TfsStatsFieldsAreIsolated) {
  using S = tfs::Tfs::Stats;
  const Fields<S> fields = {&S::blocks_written, &S::blocks_read,
      &S::replica_read_failovers, &S::files_read, &S::bytes_written,
      &S::bytes_read};
  ASSERT_EQ(fields.size(), sizeof(S) / sizeof(std::uint64_t));
  ExpectEachFieldIsolated(fields);
}

// ServingStats mixes counters with doubles the frontend fills in on the
// snapshot; the block leaves those at 0.0.
TEST(CountersTest, ServingStatsCountersAreIsolatedAndDoublesStayZero) {
  using S = serving::ServingStats;
  const Fields<S> fields = {&S::received, &S::admitted, &S::ok, &S::not_found,
      &S::shed, &S::deadline_exceeded, &S::cancelled, &S::unavailable,
      &S::other_errors, &S::txn_committed, &S::txn_conflicts,
      &S::txn_conflict_retries, &S::degraded_reads, &S::retries_granted,
      &S::retries_denied, &S::latency_count};
  ExpectEachFieldIsolated(fields);

  Counters<S> counters;
  for (auto field : fields) counters.Add(field, 3);
  const S snap = counters.Snapshot();
  EXPECT_EQ(snap.retry_budget_tokens, 0.0);
  EXPECT_EQ(snap.latency_mean_micros, 0.0);
  EXPECT_EQ(snap.latency_p50_micros, 0.0);
  EXPECT_EQ(snap.latency_p95_micros, 0.0);
  EXPECT_EQ(snap.latency_p99_micros, 0.0);
  EXPECT_EQ(snap.latency_max_micros, 0.0);
}

TEST(CountersTest, StoreOverwritesAndResetZeroes) {
  using S = net::RecoveryStats;
  Counters<S> counters;
  counters.Add(&S::last_promote_micros, 40);
  counters.Store(&S::last_promote_micros, 7);
  counters.Add(&S::promotions, 3);
  EXPECT_EQ(counters.Snapshot().last_promote_micros, 7u);
  EXPECT_EQ(counters.Snapshot().promotions, 3u);
  counters.Reset();
  const auto words = WordsOf(counters.Snapshot());
  EXPECT_EQ(std::accumulate(words.begin(), words.end(), std::uint64_t{0}),
            0u);
}

TEST(CountersTest, AccumulateSumsEveryField) {
  using S = storage::MemoryTrunk::Stats;
  const Fields<S> fields = {&S::live_cells, &S::live_bytes, &S::reserved_slack,
      &S::dead_bytes, &S::used_bytes, &S::resident_bytes, &S::committed_bytes,
      &S::capacity, &S::defrag_passes, &S::cells_moved, &S::expansions_in_place,
      &S::expansions_relocated, &S::compressed_cells, &S::compressed_bytes,
      &S::spilled_cells, &S::spilled_bytes, &S::cells_evicted,
      &S::cells_faulted, &S::cold_bytes_written, &S::cold_bytes_read,
      &S::shared_reads, &S::read_lock_contended, &S::write_lock_contended,
      &S::cell_lock_contended};
  ASSERT_EQ(fields.size(), sizeof(S) / sizeof(std::uint64_t));
  S total;
  S part;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    total.*fields[i] = 1000 * (i + 1);
    part.*fields[i] = i + 1;
  }
  Accumulate(&total, part);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(total.*fields[i], 1001 * (i + 1)) << "field " << i;
  }
}

TEST(CountersTest, ConcurrentAddsReachTheExactTotal) {
  using S = net::NetworkStats;
  constexpr int kThreads = 4;
  constexpr int kAdds = 20000;
  Counters<S> counters;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters] {
      for (int i = 0; i < kAdds; ++i) {
        counters.Add(&S::messages, 1);
        counters.Add(&S::bytes, 3);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const S snap = counters.Snapshot();
  EXPECT_EQ(snap.messages, std::uint64_t{kThreads} * kAdds);
  EXPECT_EQ(snap.bytes, 3 * std::uint64_t{kThreads} * kAdds);
  EXPECT_EQ(snap.transfers, 0u);
}

}  // namespace
}  // namespace trinity
