#include "tfs/tfs.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/hash.h"
#include "common/logging.h"
#include "common/serializer.h"

namespace trinity::tfs {

namespace fs = std::filesystem;

namespace {

Status WriteLocalFileAtomic(const std::string& path, Slice data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) return Status::IOError("short write to " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IOError("rename failed: " + ec.message());
  return Status::OK();
}

Status ReadLocalFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return Status::OK();
}

}  // namespace

Status Tfs::Open(const Options& options, std::unique_ptr<Tfs>* out) {
  if (options.root.empty()) {
    return Status::InvalidArgument("TFS root must not be empty");
  }
  if (options.num_datanodes < 1) {
    return Status::InvalidArgument("need at least one datanode");
  }
  if (options.block_size == 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  Options normalized = options;
  if (normalized.replication < 1) normalized.replication = 1;
  if (normalized.replication > normalized.num_datanodes) {
    normalized.replication = normalized.num_datanodes;
  }
  std::unique_ptr<Tfs> instance(new Tfs(normalized));
  Status s = instance->Init();
  if (!s.ok()) return s;
  *out = std::move(instance);
  return Status::OK();
}

Status Tfs::Init() {
  std::error_code ec;
  fs::create_directories(options_.root + "/namenode", ec);
  if (ec) return Status::IOError("mkdir namenode: " + ec.message());
  for (int i = 0; i < options_.num_datanodes; ++i) {
    fs::create_directories(options_.root + "/dn" + std::to_string(i), ec);
    if (ec) return Status::IOError("mkdir datanode: " + ec.message());
  }
  datanode_alive_.assign(options_.num_datanodes, true);
  std::lock_guard<std::mutex> lock(mu_);
  return LoadManifestLocked();
}

std::string Tfs::BlockPath(int datanode, std::uint64_t block_id) const {
  return options_.root + "/dn" + std::to_string(datanode) + "/blk_" +
         std::to_string(block_id);
}

Status Tfs::WriteBlockLocked(Slice data, BlockLocation* loc) {
  loc->block_id = next_block_id_++;
  loc->length = static_cast<std::uint32_t>(data.size());
  loc->checksum = HashSlice(data);
  loc->replicas.clear();
  // Round-robin placement over alive datanodes.
  int placed = 0;
  for (int attempt = 0;
       attempt < options_.num_datanodes && placed < options_.replication;
       ++attempt) {
    const int dn = next_placement_;
    next_placement_ = (next_placement_ + 1) % options_.num_datanodes;
    if (!datanode_alive_[dn]) continue;
    Status s = WriteLocalFileAtomic(BlockPath(dn, loc->block_id), data);
    if (!s.ok()) return s;
    loc->replicas.push_back(dn);
    ++placed;
    stats_.Add(&Stats::bytes_written, data.size());
  }
  if (placed == 0) return Status::Unavailable("no alive datanode");
  stats_.Add(&Stats::blocks_written, 1);
  return Status::OK();
}

Status Tfs::ReadBlockLocked(const BlockLocation& loc, std::string* out) {
  bool first = true;
  for (int dn : loc.replicas) {
    if (!datanode_alive_[dn]) {
      first = false;
      continue;
    }
    std::string data;
    Status s = ReadLocalFile(BlockPath(dn, loc.block_id), &data);
    if (s.ok()) {
      if (data.size() != loc.length || HashSlice(data) != loc.checksum) {
        TRINITY_WARN("checksum mismatch for block %llu on dn%d",
                     static_cast<unsigned long long>(loc.block_id), dn);
        first = false;
        continue;  // Corrupt replica; try the next one.
      }
      if (!first) stats_.Add(&Stats::replica_read_failovers, 1);
      stats_.Add(&Stats::blocks_read, 1);
      stats_.Add(&Stats::bytes_read, data.size());
      *out = std::move(data);
      return Status::OK();
    }
    first = false;
  }
  return Status::Unavailable("all replicas unreachable or corrupt");
}

Status Tfs::DeleteBlocksLocked(const FileEntry& entry) {
  for (const auto& block : entry.blocks) {
    for (int dn : block.replicas) {
      std::error_code ec;
      fs::remove(BlockPath(dn, block.block_id), ec);
      // Dead datanodes may fail removal; garbage is tolerated like in HDFS.
    }
  }
  return Status::OK();
}

Status Tfs::WriteFile(const std::string& path, Slice data) {
  if (path.empty()) return Status::InvalidArgument("empty path");
  std::lock_guard<std::mutex> lock(mu_);
  FileEntry entry;
  entry.length = data.size();
  std::size_t offset = 0;
  do {
    const std::size_t chunk =
        std::min<std::size_t>(options_.block_size, data.size() - offset);
    BlockLocation loc;
    Status s = WriteBlockLocked(Slice(data.data() + offset, chunk), &loc);
    if (!s.ok()) return s;
    entry.blocks.push_back(std::move(loc));
    offset += chunk;
  } while (offset < data.size());

  auto it = files_.find(path);
  if (it != files_.end()) {
    DeleteBlocksLocked(it->second);
    it->second = std::move(entry);
  } else {
    files_.emplace(path, std::move(entry));
  }
  return PersistManifestLocked();
}

Status Tfs::ReadFile(const std::string& path, std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  out->clear();
  out->reserve(it->second.length);
  for (const auto& block : it->second.blocks) {
    std::string chunk;
    Status s = ReadBlockLocked(block, &chunk);
    if (!s.ok()) return s;
    out->append(chunk);
  }
  stats_.Add(&Stats::files_read, 1);
  return Status::OK();
}

Status Tfs::CreateExclusive(const std::string& path, Slice data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.count(path) != 0) return Status::AlreadyExists(path);
  }
  return WriteFile(path, data);
}

Status Tfs::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  DeleteBlocksLocked(it->second);
  files_.erase(it);
  return PersistManifestLocked();
}

bool Tfs::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) != 0;
}

std::vector<std::string> Tfs::List(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> result;
  for (const auto& [path, entry] : files_) {
    (void)entry;
    if (path.compare(0, prefix.size(), prefix) == 0) result.push_back(path);
  }
  return result;
}

Status Tfs::KillDatanode(int datanode) {
  std::lock_guard<std::mutex> lock(mu_);
  if (datanode < 0 || datanode >= options_.num_datanodes) {
    return Status::InvalidArgument("bad datanode id");
  }
  datanode_alive_[datanode] = false;
  return Status::OK();
}

Status Tfs::ReviveDatanode(int datanode) {
  std::lock_guard<std::mutex> lock(mu_);
  if (datanode < 0 || datanode >= options_.num_datanodes) {
    return Status::InvalidArgument("bad datanode id");
  }
  datanode_alive_[datanode] = true;
  return Status::OK();
}

bool Tfs::IsDatanodeAlive(int datanode) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (datanode < 0 || datanode >= options_.num_datanodes) return false;
  return datanode_alive_[datanode];
}

Status Tfs::PersistManifestLocked() {
  BinaryWriter writer;
  writer.PutU64(next_block_id_);
  writer.PutU32(static_cast<std::uint32_t>(files_.size()));
  for (const auto& [path, entry] : files_) {
    writer.PutString(path);
    writer.PutU64(entry.length);
    writer.PutU32(static_cast<std::uint32_t>(entry.blocks.size()));
    for (const auto& block : entry.blocks) {
      writer.PutU64(block.block_id);
      writer.PutU32(block.length);
      writer.PutU64(block.checksum);
      writer.PutU32(static_cast<std::uint32_t>(block.replicas.size()));
      for (int dn : block.replicas) writer.PutI32(dn);
    }
  }
  return WriteLocalFileAtomic(options_.root + "/namenode/manifest",
                              Slice(writer.buffer()));
}

Status Tfs::LoadManifestLocked() {
  std::string data;
  Status s = ReadLocalFile(options_.root + "/namenode/manifest", &data);
  if (!s.ok()) return Status::OK();  // Fresh filesystem.
  BinaryReader reader{Slice(data)};
  std::uint32_t file_count = 0;
  if (!reader.GetU64(&next_block_id_) || !reader.GetU32(&file_count)) {
    return Status::Corruption("manifest header");
  }
  files_.clear();
  for (std::uint32_t i = 0; i < file_count; ++i) {
    std::string path;
    FileEntry entry;
    std::uint32_t block_count = 0;
    if (!reader.GetString(&path) || !reader.GetU64(&entry.length) ||
        !reader.GetU32(&block_count)) {
      return Status::Corruption("manifest file entry");
    }
    for (std::uint32_t b = 0; b < block_count; ++b) {
      BlockLocation loc;
      std::uint32_t replica_count = 0;
      if (!reader.GetU64(&loc.block_id) || !reader.GetU32(&loc.length) ||
          !reader.GetU64(&loc.checksum) || !reader.GetU32(&replica_count)) {
        return Status::Corruption("manifest block entry");
      }
      for (std::uint32_t r = 0; r < replica_count; ++r) {
        std::int32_t dn = 0;
        if (!reader.GetI32(&dn)) return Status::Corruption("manifest replica");
        loc.replicas.push_back(dn);
      }
      entry.blocks.push_back(std::move(loc));
    }
    files_.emplace(std::move(path), std::move(entry));
  }
  return Status::OK();
}

}  // namespace trinity::tfs
