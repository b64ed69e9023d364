#ifndef TRINITY_COMMON_THREADPOOL_H_
#define TRINITY_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trinity {

namespace net {
class Meters;
}  // namespace net

/// The calling thread's run meter (see net::RunMeters). It lives here
/// because ThreadPool carries it into the tasks it runs.
inline constinit thread_local net::Meters* current_run_meter = nullptr;

/// Fixed-size worker pool. Trinity slaves run their message handlers and BSP
/// partition jobs on a pool like this; WaitIdle() gives the bulk-synchronous
/// barrier between supersteps. A task runs under the run meter that was
/// current when it was submitted.
class ThreadPool {
 public:
  /// num_threads <= 0 means one worker per hardware thread (at least one).
  /// A one-thread pool starts no worker: Submit runs the task inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion —
  /// the call itself is the barrier. The range is split into at most
  /// num_threads() contiguous chunks (one task each) so a worker touches a
  /// run of adjacent indices instead of interleaving with its neighbors;
  /// n <= 1 (and a single-thread pool) runs inline on the calling thread.
  /// fn must not call ParallelFor on the same pool (a worker would block
  /// waiting for tasks that only it could run).
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Contiguous index range [begin, end) dispatched as one task.
  struct Shard {
    int begin;
    int end;
  };

  /// Splits [0, n) into at most max_shards contiguous shards of
  /// approximately equal *total cost* (caller-supplied per-item cost, e.g. a
  /// vertex's adjacency length). Fixed-size chunks serialize on runs of
  /// heavy items — a power-law graph's hub vertices all land in one chunk —
  /// so cost-balanced splitting is what keeps skewed ParallelFor loops from
  /// degenerating to single-threaded. A shard never exceeds the ideal cost
  /// by more than one item; zero-total-cost ranges fall back to equal-count
  /// chunks.
  static std::vector<Shard> SplitWeighted(
      int n, const std::function<double(int)>& cost, int max_shards);

  /// Runs fn(shard_index, begin, end) for every shard and waits for
  /// completion (one task per shard). Callers that need per-worker
  /// accumulators index them by shard and merge after the call returns —
  /// the analytics kernels dispatch this way. A single shard (or empty
  /// vector) runs inline.
  void ParallelForShards(const std::vector<Shard>& shards,
                         const std::function<void(int, int, int)>& fn);

  /// Cost-weighted ParallelFor: shards are balanced by caller-supplied
  /// per-item cost instead of item count, with mild over-partitioning
  /// (4x num_threads) so an imperfect cost model still spreads. Semantics
  /// otherwise match ParallelFor(n, fn).
  void ParallelFor(int n, const std::function<void(int)>& fn,
                   const std::function<double(int)>& cost);

 private:
  struct Task {
    std::function<void()> fn;
    net::Meters* run_meter;
  };

  void WorkerLoop();

  int num_threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace trinity

#endif  // TRINITY_COMMON_THREADPOOL_H_
