#include "storage/cold_tier.h"

#include <cstring>

namespace trinity::storage {

namespace {

constexpr std::uint32_t kPageMagic = 0x434f4c44u;  // "COLD"

template <typename T>
void AppendPod(std::string* dst, T v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(const char** p, const char* end, T* v) {
  if (static_cast<std::size_t>(end - *p) < sizeof(T)) return false;
  std::memcpy(v, *p, sizeof(T));
  *p += sizeof(T);
  return true;
}

}  // namespace

Status ColdTier::ParsePage(
    Slice page,
    const std::function<void(CellId, std::uint8_t, std::uint32_t, Slice)>&
        fn) {
  const char* p = page.data();
  const char* end = p + page.size();
  std::uint32_t magic = 0, count = 0;
  if (!ReadPod(&p, end, &magic) || magic != kPageMagic ||
      !ReadPod(&p, end, &count)) {
    return Status::Corruption("cold tier: bad page header");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    CellId id = 0;
    std::uint8_t format = 0;
    std::uint32_t raw_size = 0, len = 0;
    if (!ReadPod(&p, end, &id) || !ReadPod(&p, end, &format) ||
        !ReadPod(&p, end, &raw_size) || !ReadPod(&p, end, &len) ||
        static_cast<std::size_t>(end - p) < len) {
      return Status::Corruption("cold tier: truncated page record");
    }
    fn(id, format, raw_size, Slice(p, len));
    p += len;
  }
  return Status::OK();
}

Status ColdTier::WritePageLocked(const SpillEntry* entries,
                                 std::size_t count) {
  std::string page;
  AppendPod(&page, kPageMagic);
  AppendPod(&page, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const SpillEntry& e = entries[i];
    AppendPod(&page, e.id);
    AppendPod(&page, e.format);
    AppendPod(&page, e.raw_size);
    AppendPod(&page, static_cast<std::uint32_t>(e.stored.size()));
    page.append(e.stored.data(), e.stored.size());
  }

  const std::uint64_t page_no = next_page_;
  Status s = options_.tfs->WriteFile(PagePath(page_no), Slice(page));
  if (!s.ok()) return s;
  // Page is durable: now (and only now) install the mappings.
  ++next_page_;
  pages_[page_no].live_cells = static_cast<std::uint32_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    const SpillEntry& e = entries[i];
    CellMeta& meta = table_[e.id];
    meta.page = page_no;
    meta.stored_size = static_cast<std::uint32_t>(e.stored.size());
    meta.raw_size = e.raw_size;
    meta.format = e.format;
    stats_.bytes_spilled += e.stored.size();
    spilled_bytes_.fetch_add(e.stored.size(), std::memory_order_relaxed);
  }
  stats_.pages_written += 1;
  stats_.cells_spilled += count;
  spilled_cells_.fetch_add(count, std::memory_order_relaxed);
  return Status::OK();
}

Status ColdTier::Spill(const std::vector<SpillEntry>& entries) {
  if (entries.empty()) return Status::OK();
  if (options_.tfs == nullptr) {
    return Status::InvalidArgument("cold tier: no backing tfs");
  }
  std::lock_guard<std::mutex> guard(mu_);
  // Callers never spill a cell that is already cold (the trunk faults in
  // before mutating), so every entry here creates a fresh mapping.
  std::size_t begin = 0;
  std::uint64_t chunk_bytes = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    chunk_bytes += entries[i].stored.size() + 24;
    const bool last = i + 1 == entries.size();
    if (chunk_bytes >= options_.page_payload_bytes || last) {
      Status s = WritePageLocked(entries.data() + begin, i + 1 - begin);
      // On failure earlier chunks stay installed; the caller rolls those
      // mappings back with Drop() while every victim is still resident
      // (see MemoryTrunk::SpillColdLocked), so no cell is ever lost.
      if (!s.ok()) return s;
      begin = i + 1;
      chunk_bytes = 0;
    }
  }
  return Status::OK();
}

bool ColdTier::Contains(CellId id) const {
  if (spilled_cells_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> guard(mu_);
  return table_.count(id) != 0;
}

bool ColdTier::Lookup(CellId id, CellMeta* meta) const {
  if (spilled_cells_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> guard(mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return false;
  if (meta != nullptr) *meta = it->second;
  return true;
}

Status ColdTier::ReadCell(CellId id, std::string* stored, CellMeta* meta) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return Status::NotFound("cell not in cold tier");
  std::string page;
  Status s = options_.tfs->ReadFile(PagePath(it->second.page), &page);
  if (!s.ok()) return s;
  stats_.pages_read += 1;

  bool found = false;
  s = ParsePage(Slice(page),
                [&](CellId cid, std::uint8_t, std::uint32_t, Slice bytes) {
                  if (cid == id) {
                    stored->assign(bytes.data(), bytes.size());
                    found = true;
                  }
                });
  if (!s.ok()) return s;
  if (!found) return Status::Corruption("cold tier: cell missing from page");
  if (meta != nullptr) *meta = it->second;
  return Status::OK();
}

void ColdTier::FaultedIn(CellId id, std::size_t stored_bytes) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stats_.cells_faulted += 1;
    stats_.bytes_faulted += stored_bytes;
  }
  Drop(id);
}

void ColdTier::Drop(CellId id) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return;
  const std::uint64_t page = it->second.page;
  spilled_bytes_.fetch_sub(it->second.stored_size, std::memory_order_relaxed);
  spilled_cells_.fetch_sub(1, std::memory_order_relaxed);
  table_.erase(it);
  auto pit = pages_.find(page);
  if (pit != pages_.end() && --pit->second.live_cells == 0) {
    (void)options_.tfs->DeleteFile(PagePath(page));
    pages_.erase(pit);
    stats_.pages_deleted += 1;
  }
}

Status ColdTier::ForEachCell(
    const std::function<void(CellId, const CellMeta&, Slice)>& fn) {
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& [page_no, info] : pages_) {
    (void)info;
    std::string page;
    Status s = options_.tfs->ReadFile(PagePath(page_no), &page);
    if (!s.ok()) return s;
    stats_.pages_read += 1;
    s = ParsePage(
        Slice(page),
        [&](CellId id, std::uint8_t, std::uint32_t, Slice bytes) {
          // Records for cells re-admitted or removed since the page was
          // written are dead space; serve only still-mapped ones that
          // still point at this page.
          auto it = table_.find(id);
          if (it != table_.end() && it->second.page == page_no) {
            fn(id, it->second, bytes);
          }
        });
    if (!s.ok()) return s;
  }
  return Status::OK();
}

std::vector<CellId> ColdTier::CellIds() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<CellId> ids;
  ids.reserve(table_.size());
  for (const auto& [id, meta] : table_) {
    (void)meta;
    ids.push_back(id);
  }
  return ids;
}

void ColdTier::Purge() {
  std::lock_guard<std::mutex> guard(mu_);
  if (options_.tfs != nullptr) {
    for (const auto& [page_no, info] : pages_) {
      (void)info;
      (void)options_.tfs->DeleteFile(PagePath(page_no));
      stats_.pages_deleted += 1;
    }
  }
  pages_.clear();
  table_.clear();
  spilled_cells_.store(0, std::memory_order_relaxed);
  spilled_bytes_.store(0, std::memory_order_relaxed);
}

ColdTier::Stats ColdTier::stats() const {
  std::lock_guard<std::mutex> guard(mu_);
  return stats_;
}

}  // namespace trinity::storage
