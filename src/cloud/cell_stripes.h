#ifndef TRINITY_CLOUD_CELL_STRIPES_H_
#define TRINITY_CLOUD_CELL_STRIPES_H_

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/hash.h"
#include "common/spinlock.h"
#include "common/types.h"

namespace trinity::cloud {

/// Process-wide striped lock table serializing guarded multi-cell operations
/// (MultiOp, the transaction layer's intent CAS) against each other AND
/// against single-cell mutations of the same cells.
///
/// Historically the stripes lived inside multiop.cc and only MultiOps took
/// them, which left a race: a plain PutCell/RemoveCell could land between a
/// MultiOp's guard evaluation and its action apply, silently invalidating
/// the guard it had just checked. Now every single-cell *mutation* entry
/// point in MemoryCloud acquires its cell's stripe too, so a guarded apply
/// and a bare write serialize — one fully before the other.
///
/// Re-entrancy: MultiOp holds its stripes while applying actions through the
/// very same MemoryCloud entry points, on the same thread (the fabric runs
/// handlers synchronously on the caller's thread). A per-thread held-stripe
/// list lets nested acquisitions skip stripes the thread already owns
/// instead of self-deadlocking on the non-recursive spin locks.
class CellStripes {
 public:
  static constexpr int kStripes = 1024;

  static int StripeOf(CellId id) {
    return static_cast<int>(InTrunkHash(id ^ 0x517cc1b727220a95ULL) %
                            kStripes);
  }

  /// Every stripe in ascending order: a guard on them excludes every
  /// single-cell mutation and guarded operation in the process.
  static std::vector<int> All() {
    std::vector<int> all(kStripes);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  /// RAII multi-stripe acquisition. `stripes` must be sorted and unique
  /// (deadlock-free global order); stripes already held by this thread are
  /// skipped and stay held by the outer guard.
  class Guard {
   public:
    explicit Guard(const std::vector<int>& stripes) {
      for (int s : stripes) Acquire(s);
    }
    /// Single-cell convenience used by the plain mutation entry points.
    explicit Guard(CellId id) { Acquire(StripeOf(id)); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    ~Guard() {
      std::vector<int>& held = HeldByThread();
      for (auto it = acquired_.rbegin(); it != acquired_.rend(); ++it) {
        Table()[*it].Unlock();
        held.erase(std::find(held.begin(), held.end(), *it));
      }
    }

   private:
    void Acquire(int stripe) {
      std::vector<int>& held = HeldByThread();
      if (std::find(held.begin(), held.end(), stripe) != held.end()) {
        return;  // Re-entrant: the outer guard on this thread owns it.
      }
      Table()[stripe].Lock();
      held.push_back(stripe);
      acquired_.push_back(stripe);
    }

    std::vector<int> acquired_;  ///< Stripes this guard must release.
  };

 private:
  static SpinLock* Table() {
    static SpinLock* stripes = new SpinLock[kStripes];
    return stripes;
  }

  static std::vector<int>& HeldByThread() {
    thread_local std::vector<int> held;
    return held;
  }
};

}  // namespace trinity::cloud

#endif  // TRINITY_CLOUD_CELL_STRIPES_H_
