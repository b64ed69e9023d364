#ifndef TRINITY_STORAGE_COLD_TIER_H_
#define TRINITY_STORAGE_COLD_TIER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "tfs/tfs.h"

namespace trinity::storage {

/// TFS-backed cold tier for one memory trunk: cold cells evicted by the
/// trunk's clock sweep land here as immutable multi-cell *pages*, written
/// and read with purely sequential I/O (GraphD-style, see PAPERS.md
/// "Efficient Processing of Very Large Graphs in a Small Cluster").
///
/// Pages carry cells in their *stored* form — delta-varint compressed when
/// the codec applied — plus each cell's format tag and logical size, so
/// fault-in re-admits bytes verbatim and GetCellSize answers without I/O.
///
/// Protocol invariants the trunk relies on:
///   * Spill() makes a page durable BEFORE the trunk drops the resident
///     copies — a failed page write leaves every victim resident, so a
///     crash mid-eviction can never lose a cell.
///   * Fault-in copies one cell out of its page but leaves the page intact;
///     Drop() releases the mapping, and a page is deleted only when its
///     last cell is dropped (dead space in partially-drained pages is the
///     price of sequential rewrites never happening).
///
/// Thread safety: all methods lock the internal mutex. The owning trunk
/// calls the mutating methods (Spill/ReadCell/FaultedIn/Drop) only from its
/// exclusive side; Contains/Lookup are called under the shared read lock and
/// take the `spilled_cells_ == 0` fast path without the mutex, so the
/// resident read hot path stays lock-free with an empty cold tier.
class ColdTier {
 public:
  struct Options {
    tfs::Tfs* tfs = nullptr;  ///< Backing store (required).
    std::string prefix;       ///< File-name prefix for this tier's pages.
    std::uint64_t page_payload_bytes = 256 << 10;  ///< Target page size.
  };

  /// Page-table entry for one spilled cell.
  struct CellMeta {
    std::uint64_t page = 0;        ///< Page sequence number.
    std::uint32_t stored_size = 0; ///< Bytes as stored (maybe compressed).
    std::uint32_t raw_size = 0;    ///< Logical (decoded) payload bytes.
    std::uint8_t format = 0;       ///< CellFormat of the stored bytes.
  };

  /// One eviction victim handed to Spill().
  struct SpillEntry {
    CellId id = 0;
    std::uint8_t format = 0;
    std::uint32_t raw_size = 0;
    Slice stored;  ///< Must stay valid for the duration of the call.
  };

  struct Stats {
    std::uint64_t pages_written = 0;
    std::uint64_t pages_read = 0;
    std::uint64_t pages_deleted = 0;
    std::uint64_t cells_spilled = 0;  ///< Cumulative.
    std::uint64_t cells_faulted = 0;  ///< Cumulative.
    std::uint64_t bytes_spilled = 0;  ///< Cumulative stored bytes.
    std::uint64_t bytes_faulted = 0;  ///< Cumulative stored bytes.
  };

  explicit ColdTier(Options options) : options_(std::move(options)) {}
  ~ColdTier() { Purge(); }
  ColdTier(const ColdTier&) = delete;
  ColdTier& operator=(const ColdTier&) = delete;

  /// Writes `entries` to one or more fresh pages (chunked at
  /// page_payload_bytes) and installs their page-table mappings. All-or-
  /// nothing: on any write error no mapping is installed and the caller
  /// must keep every victim resident.
  Status Spill(const std::vector<SpillEntry>& entries);

  bool Contains(CellId id) const;
  bool Lookup(CellId id, CellMeta* meta) const;

  /// Reads the page holding `id` (one sequential TFS read) and copies the
  /// cell's stored bytes out. The mapping stays until FaultedIn() or Drop().
  Status ReadCell(CellId id, std::string* stored, CellMeta* meta);

  /// Counts a ReadCell result the trunk validated and installed, then drops
  /// its mapping. A record rejected at install counts nothing.
  void FaultedIn(CellId id, std::size_t stored_bytes);

  /// Releases the mapping after re-admission, overwrite, or removal.
  /// Deletes the backing page once its last cell is dropped.
  void Drop(CellId id);

  /// Sequentially reads every page once and invokes fn for each still-
  /// mapped cell — the trunk serialization path, so snapshots and
  /// replication images include spilled cells.
  Status ForEachCell(
      const std::function<void(CellId, const CellMeta&, Slice)>& fn);

  /// Ids of all spilled cells (unspecified order).
  std::vector<CellId> CellIds() const;

  /// Deletes every page and mapping (trunk teardown).
  void Purge();

  /// Lock-free counters for the trunk's read-path fast checks.
  std::uint64_t spilled_cells() const {
    return spilled_cells_.load(std::memory_order_relaxed);
  }
  std::uint64_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }

  Stats stats() const;

 private:
  struct PageInfo {
    std::uint32_t live_cells = 0;
  };

  std::string PagePath(std::uint64_t page) const {
    return options_.prefix + "/page_" + std::to_string(page);
  }
  Status WritePageLocked(const SpillEntry* entries, std::size_t count);
  /// Parses a page blob; fn(id, format, raw_size, stored). Corruption on
  /// malformed pages.
  static Status ParsePage(
      Slice page,
      const std::function<void(CellId, std::uint8_t, std::uint32_t, Slice)>&
          fn);

  const Options options_;
  mutable std::mutex mu_;
  std::map<CellId, CellMeta> table_;
  std::map<std::uint64_t, PageInfo> pages_;
  std::uint64_t next_page_ = 1;
  Stats stats_;
  std::atomic<std::uint64_t> spilled_cells_{0};
  std::atomic<std::uint64_t> spilled_bytes_{0};
};

}  // namespace trinity::storage

#endif  // TRINITY_STORAGE_COLD_TIER_H_
