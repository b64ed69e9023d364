#ifndef TRINITY_TFS_TFS_H_
#define TRINITY_TFS_TFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/slice.h"
#include "common/status.h"

namespace trinity::tfs {

/// Trinity File System — the shared, fault-tolerant distributed file system
/// the paper layers under the memory cloud ("similar to HDFS", §3). Memory
/// trunks, the primary addressing table, BSP checkpoints and async snapshots
/// are all persisted here.
///
/// This implementation simulates a small HDFS-like deployment on local disk:
/// a namenode (in-memory block map, persisted manifest) plus N datanode
/// directories. Every file is split into fixed-size blocks; each block is
/// replicated onto `replication` distinct datanodes and checksummed. Killing
/// a datanode makes its replicas unreadable, exercising the same failover
/// paths a real deployment would take.
class Tfs {
 public:
  struct Options {
    std::string root;        ///< Directory that holds namenode + datanodes.
    int num_datanodes = 3;   ///< Simulated datanode count.
    int replication = 2;     ///< Replicas per block (clamped to datanodes).
    std::uint64_t block_size = 1 << 20;  ///< Bytes per block.
  };

  struct Stats {
    std::uint64_t blocks_written = 0;
    std::uint64_t blocks_read = 0;
    std::uint64_t replica_read_failovers = 0;  ///< Reads served by a backup.
    std::uint64_t files_read = 0;  ///< Whole-file ReadFile completions.
    std::uint64_t bytes_written = 0;  ///< Payload bytes (per replica write).
    std::uint64_t bytes_read = 0;     ///< Payload bytes served to readers.
  };

  /// Opens (or creates) a TFS instance rooted at options.root. Reloads the
  /// persisted manifest if one exists, so files survive process restarts.
  static Status Open(const Options& options, std::unique_ptr<Tfs>* out);

  ~Tfs() = default;
  Tfs(const Tfs&) = delete;
  Tfs& operator=(const Tfs&) = delete;

  /// Atomically creates or replaces `path` with `data`.
  Status WriteFile(const std::string& path, Slice data);

  /// Reads the whole file. Fails over to backup replicas when a datanode
  /// holding the primary replica is dead.
  Status ReadFile(const std::string& path, std::string* out);

  /// Creates the file only if it does not already exist. This is the fencing
  /// primitive the leader-election protocol uses ("marks a flag on the shared
  /// distributed fault-tolerant file system", §6.2).
  Status CreateExclusive(const std::string& path, Slice data);

  Status DeleteFile(const std::string& path);
  bool Exists(const std::string& path) const;

  /// All file paths starting with `prefix`, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  /// Simulated datanode failure / recovery.
  Status KillDatanode(int datanode);
  Status ReviveDatanode(int datanode);
  bool IsDatanodeAlive(int datanode) const;
  int num_datanodes() const { return options_.num_datanodes; }

  /// Lock-free: safe to poll from spill and recovery paths without
  /// touching the TFS mutex.
  Stats stats() const { return stats_.Snapshot(); }

 private:
  struct BlockLocation {
    std::uint64_t block_id = 0;
    std::uint32_t length = 0;
    std::uint64_t checksum = 0;
    std::vector<int> replicas;  ///< Datanodes holding this block.
  };

  struct FileEntry {
    std::vector<BlockLocation> blocks;
    std::uint64_t length = 0;
  };

  explicit Tfs(Options options) : options_(std::move(options)) {}

  Status Init();
  Status PersistManifestLocked();
  Status LoadManifestLocked();
  std::string BlockPath(int datanode, std::uint64_t block_id) const;
  Status WriteBlockLocked(Slice data, BlockLocation* loc);
  Status ReadBlockLocked(const BlockLocation& loc, std::string* out);
  Status DeleteBlocksLocked(const FileEntry& entry);

  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, FileEntry> files_;
  std::vector<bool> datanode_alive_;
  std::uint64_t next_block_id_ = 1;
  int next_placement_ = 0;  ///< Round-robin placement cursor.
  Counters<Stats> stats_;
};

}  // namespace trinity::tfs

#endif  // TRINITY_TFS_TFS_H_
