#include "storage/cell_codec.h"

#include <cstring>

namespace trinity::storage {

namespace {

std::uint64_t IdAt(Slice raw, std::size_t begin, std::size_t i) {
  std::uint64_t id = 0;
  std::memcpy(&id, raw.data() + begin + i * 8, 8);
  return id;
}

/// Appends the gap stream for a sorted id array; false if unsorted.
bool PutIdList(Slice raw, std::size_t begin, std::size_t count,
               std::string* out) {
  if (count == 0) return true;
  std::uint64_t prev = IdAt(raw, begin, 0);
  CellCodec::PutVarint(out, prev);
  for (std::size_t i = 1; i < count; ++i) {
    const std::uint64_t id = IdAt(raw, begin, i);
    if (id < prev) return false;  // Unsorted input: store raw instead.
    CellCodec::PutVarint(out, id - prev);
    prev = id;
  }
  return true;
}

/// One varint, with the one-byte case (most gaps of a sorted adjacency
/// list) inline; longer ones go through GetVarint.
inline bool NextVarint(const char** p, const char* end, std::uint64_t* v) {
  if (*p < end) {
    const auto byte = static_cast<std::uint8_t>(**p);
    if (byte < 0x80) {
      *v = byte;
      ++*p;
      return true;
    }
  }
  return CellCodec::GetVarint(p, end, v);
}

/// Reads a gap stream of `count` ids, storing them at dst when kStore.
template <bool kStore>
bool ReadIds(const char** p, const char* end, std::uint64_t count,
             CellId* dst) {
  std::uint64_t id = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t delta = 0;
    if (!NextVarint(p, end, &delta)) return false;
    id += delta;
    if constexpr (kStore) dst[i] = id;
  }
  return true;
}

}  // namespace

bool CellCodec::ParseNodeShape(Slice raw, NodeShape* s) {
  if (raw.size() < 8 || raw.size() > kMaxCellBytes) return false;
  std::memcpy(&s->in_count, raw.data(), 4);
  std::memcpy(&s->data_len, raw.data() + 4, 4);
  s->in_begin = 8 + static_cast<std::size_t>(s->data_len);
  if (s->in_begin > raw.size()) return false;
  const std::size_t in_bytes = static_cast<std::size_t>(s->in_count) * 8;
  s->out_begin = s->in_begin + in_bytes;
  if (s->out_begin < s->in_begin || s->out_begin > raw.size()) return false;
  const std::size_t tail = raw.size() - s->out_begin;
  if (tail % 8 != 0) return false;
  s->out_count = tail / 8;
  return true;
}

void CellCodec::PutVarint(std::string* dst, std::uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

bool CellCodec::GetVarint(const char** p, const char* end, std::uint64_t* v) {
  std::uint64_t result = 0;
  int shift = 0;
  const char* cur = *p;
  while (cur < end && shift < 64) {
    const std::uint8_t byte = static_cast<std::uint8_t>(*cur++);
    if (shift == 63 && (byte & 0x7e) != 0) return false;  // u64 overflow.
    result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      *p = cur;
      return true;
    }
    shift += 7;
  }
  return false;  // Truncated or overlong.
}

bool CellCodec::EncodeAdjacency(Slice raw, std::string* out) {
  NodeShape shape;
  if (!ParseNodeShape(raw, &shape)) return false;
  std::string enc;
  enc.reserve(raw.size() / 2);
  PutVarint(&enc, raw.size());
  PutVarint(&enc, shape.in_count);
  PutVarint(&enc, shape.data_len);
  enc.append(raw.data() + 8, shape.data_len);
  if (!PutIdList(raw, shape.in_begin, shape.in_count, &enc)) return false;
  PutVarint(&enc, shape.out_count);
  if (!PutIdList(raw, shape.out_begin, shape.out_count, &enc)) return false;
  if (enc.size() >= raw.size()) return false;  // Not worth the tag.
  *out = std::move(enc);
  return true;
}

Status CellCodec::DecodedSize(Slice encoded, std::uint64_t* size) {
  const char* p = encoded.data();
  const char* end = p + encoded.size();
  std::uint64_t raw_size = 0;
  if (!GetVarint(&p, end, &raw_size) || raw_size > kMaxCellBytes) {
    return Status::Corruption("cell codec: bad raw size");
  }
  *size = raw_size;
  return Status::OK();
}

Status CellCodec::DecodeNode(Slice encoded, NodeParts parts,
                             std::vector<CellId>* scratch, NodeView* view) {
  const char* p = encoded.data();
  const char* end = p + encoded.size();
  std::uint64_t raw_size = 0, in_count = 0, data_len = 0;
  if (!NextVarint(&p, end, &raw_size) || raw_size > kMaxCellBytes ||
      !NextVarint(&p, end, &in_count) || !NextVarint(&p, end, &data_len)) {
    return Status::Corruption("cell codec: bad header");
  }
  // Every id costs at least one encoded byte and data bytes are verbatim,
  // so wildly inflated counts are rejected before scratch is sized by them.
  const std::size_t remaining = static_cast<std::size_t>(end - p);
  if (data_len > remaining || in_count > remaining) {
    return Status::Corruption("cell codec: counts exceed payload");
  }
  if (static_cast<std::uint32_t>(in_count) != in_count ||
      static_cast<std::uint32_t>(data_len) != data_len) {
    return Status::Corruption("cell codec: count overflow");
  }
  // Scratch layout: data bytes padded to whole words, in ids, out ids.
  const std::size_t data_words = (data_len + 7) / 8;
  const std::size_t in_begin = data_words;
  const std::size_t out_begin =
      in_begin + (parts == NodeParts::kAll ? in_count : 0);
  if (scratch->size() < out_begin) scratch->resize(out_begin);
  if (data_len > 0) std::memcpy(scratch->data(), p, data_len);
  p += data_len;
  std::uint64_t out_count = 0;
  if (parts != NodeParts::kData) {
    const bool in_ok =
        parts == NodeParts::kAll
            ? ReadIds<true>(&p, end, in_count, scratch->data() + in_begin)
            : ReadIds<false>(&p, end, in_count, nullptr);
    if (!in_ok) return Status::Corruption("cell codec: truncated in-list");
    if (!NextVarint(&p, end, &out_count) ||
        out_count > static_cast<std::size_t>(end - p) + 1) {
      return Status::Corruption("cell codec: bad out count");
    }
    if (scratch->size() < out_begin + out_count) {
      scratch->resize(out_begin + out_count);
    }
    if (!ReadIds<true>(&p, end, out_count, scratch->data() + out_begin)) {
      return Status::Corruption("cell codec: truncated out-list");
    }
    if (p != end || raw_size != 8 + data_len + 8 * (in_count + out_count)) {
      return Status::Corruption("cell codec: size mismatch");
    }
  }
  // Pointers last: the resizes above may have moved the scratch.
  const CellId* ids = scratch->data();
  *view = NodeView();
  view->data = Slice(reinterpret_cast<const char*>(ids), data_len);
  if (parts == NodeParts::kAll) {
    view->in = ids + in_begin;
    view->in_count = in_count;
  }
  if (parts != NodeParts::kData) {
    view->out = ids + out_begin;
    view->out_count = out_count;
  }
  return Status::OK();
}

Status CellCodec::ValidateAdjacency(Slice encoded) {
  thread_local std::vector<CellId> scratch;
  NodeView view;
  return DecodeNode(encoded, NodeParts::kDataOut, &scratch, &view);
}

Status CellCodec::DecodeAdjacency(Slice encoded, std::string* out) {
  thread_local std::vector<CellId> scratch;
  NodeView node;
  Status s = DecodeNode(encoded, NodeParts::kAll, &scratch, &node);
  if (!s.ok()) return s;
  const std::uint32_t in_count = static_cast<std::uint32_t>(node.in_count);
  const std::uint32_t data_len = static_cast<std::uint32_t>(node.data.size());
  std::string raw;
  raw.reserve(8 + data_len + 8 * (node.in_count + node.out_count));
  raw.append(reinterpret_cast<const char*>(&in_count), 4);
  raw.append(reinterpret_cast<const char*>(&data_len), 4);
  raw.append(node.data.data(), data_len);
  raw.append(reinterpret_cast<const char*>(node.in), 8 * node.in_count);
  raw.append(reinterpret_cast<const char*>(node.out), 8 * node.out_count);
  *out = std::move(raw);
  return Status::OK();
}

Status CellCodec::ViewRawNode(Slice raw, NodeParts parts,
                              std::vector<CellId>* scratch, NodeView* view) {
  NodeShape shape;
  if (!ParseNodeShape(raw, &shape)) {
    return Status::Corruption("malformed node cell");
  }
  *view = NodeView();
  view->data = Slice(raw.data() + 8, shape.data_len);
  if (parts == NodeParts::kData) return Status::OK();
  const bool want_in = parts == NodeParts::kAll;
  const std::size_t in_count = want_in ? shape.in_count : 0;
  const char* in = raw.data() + shape.in_begin;
  const char* out = raw.data() + shape.out_begin;
  // Both arrays share one alignment: their offsets differ by 8 * in_count.
  if ((reinterpret_cast<std::uintptr_t>(in) & 7) == 0) {
    view->in = reinterpret_cast<const CellId*>(in);
    view->out = reinterpret_cast<const CellId*>(out);
  } else {
    const std::size_t ids = in_count + shape.out_count;
    if (scratch->size() < ids) scratch->resize(ids);
    if (ids > 0) {
      std::memcpy(scratch->data(), in, 8 * in_count);
      std::memcpy(scratch->data() + in_count, out, 8 * shape.out_count);
    }
    view->in = scratch->data();
    view->out = scratch->data() + in_count;
  }
  if (!want_in) view->in = nullptr;
  view->in_count = in_count;
  view->out_count = shape.out_count;
  return Status::OK();
}

}  // namespace trinity::storage
