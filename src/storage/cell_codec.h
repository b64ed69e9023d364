#ifndef TRINITY_STORAGE_CELL_CODEC_H_
#define TRINITY_STORAGE_CELL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace trinity::storage {

/// Per-cell storage format tag. Kept in two spare bits of the trunk entry
/// header (and as one byte in trunk images and cold-tier pages), so legacy
/// raw payloads decode unchanged — format 0 *is* the legacy layout.
enum class CellFormat : std::uint8_t {
  kRaw = 0,       ///< Payload stored verbatim.
  kAdjDelta = 1,  ///< Node cell with delta-varint adjacency (CellCodec).
};

/// The parts of a node cell a reader asks for. Each selection includes the
/// ones before it; parts not asked for come back empty.
enum class NodeParts : std::uint8_t {
  kData = 0,     ///< The node payload only.
  kDataOut = 1,  ///< Payload and out-list.
  kAll = 2,      ///< Payload, in-list and out-list.
};

/// The requested parts of one node cell. The pointers refer either into a
/// pinned raw cell or into the caller's scratch (see CellCodec::DecodeNode).
struct NodeView {
  Slice data;
  const CellId* in = nullptr;
  std::size_t in_count = 0;
  const CellId* out = nullptr;
  std::size_t out_count = 0;
};

/// Geometry of a raw node cell (the layout below).
struct NodeShape {
  std::uint32_t in_count = 0;
  std::uint32_t data_len = 0;
  std::size_t in_begin = 0;   ///< Byte offset of the in-id array.
  std::size_t out_begin = 0;  ///< Byte offset of the out-id array.
  std::size_t out_count = 0;
};

/// Adaptive compressed encoding for adjacency-list cells, after Trident's
/// delta-varint neighbor lists (PAPERS.md "Adaptive Low-level Storage of
/// Very Large Knowledge Graphs").
///
/// The codec understands the graph layer's node cell layout
///
///   raw := [u32 in_count][u32 data_len][data][in ids (8B)...][out ids (8B)]
///
/// and re-encodes the two id arrays as gap streams when both are sorted
/// (non-decreasing; duplicates = parallel edges are fine):
///
///   enc := varint(raw_size) varint(in_count) varint(data_len) data
///          ids(in_count) varint(out_count) ids(out_count)
///   ids(n) := varint(first_id) varint(id[i] - id[i-1])*(n-1)   // n > 0
///
/// Encoding is *adaptive*: EncodeAdjacency returns false — store raw — for
/// payloads that do not parse as a node cell, carry unsorted lists, or
/// would not shrink. Decoding reproduces the raw payload bit-identically,
/// validates every bound, and never reads outside the input slice, so a
/// corrupt payload surfaces as Status::Corruption rather than UB (fuzzed in
/// tests/fuzz_test.cc). Node visits decode in place with DecodeNode, only
/// the parts they read; the trunk runs ValidateAdjacency where stored bytes
/// it did not encode enter it (docs/memory_hierarchy.md).
class CellCodec {
 public:
  /// Cells above this logical size are never produced by the trunk (the
  /// format tag borrows the top bits of the entry header's capacity field).
  static constexpr std::uint64_t kMaxCellBytes = (1u << 30) - 1;

  /// Attempts the delta-varint encoding. Returns true and fills *out only
  /// when `raw` parses as a node cell, both id lists are sorted
  /// (non-decreasing), and the encoding is strictly smaller than `raw`.
  static bool EncodeAdjacency(Slice raw, std::string* out);

  /// Decodes an EncodeAdjacency payload back to the exact raw bytes.
  /// Returns Corruption on any malformed input.
  static Status DecodeAdjacency(Slice encoded, std::string* out);

  /// Decodes the `parts` of an EncodeAdjacency payload into `scratch`
  /// (grown, never shrunk: the data bytes first, then in ids, then out ids)
  /// and points *view at them. Every byte read is bounds-checked. With
  /// kDataOut or kAll the whole payload is read and checked exactly as
  /// DecodeAdjacency checks it; kData stops after the payload bytes, so the
  /// id lists are left unchecked and ValidateAdjacency must have accepted
  /// the bytes before.
  static Status DecodeNode(Slice encoded, NodeParts parts,
                           std::vector<CellId>* scratch, NodeView* view);

  /// OK exactly when DecodeAdjacency would accept `encoded`.
  static Status ValidateAdjacency(Slice encoded);

  /// Parses a raw node cell's header; false when `raw` is not a node cell.
  static bool ParseNodeShape(Slice raw, NodeShape* shape);

  /// Points *view at the `parts` of a raw node cell in place. Ids are copied
  /// into `scratch` only when they are not 8-byte aligned (a payload whose
  /// length is not a multiple of 8 shifts them). Corruption when `raw` is
  /// not a node cell.
  static Status ViewRawNode(Slice raw, NodeParts parts,
                            std::vector<CellId>* scratch, NodeView* view);

  /// Reads just the leading raw_size varint (the decoded payload length)
  /// without materializing the cell.
  static Status DecodedSize(Slice encoded, std::uint64_t* size);

  /// Logical (decoded) size of a stored payload under `format`.
  static std::uint64_t LogicalSize(CellFormat format, Slice stored) {
    if (format == CellFormat::kRaw) return stored.size();
    std::uint64_t size = 0;
    return DecodedSize(stored, &size).ok() ? size : stored.size();
  }

  // LEB128 varint helpers (exposed for tests and the cold-tier pager).
  static void PutVarint(std::string* dst, std::uint64_t v);
  /// Advances *p past the varint; false on truncation or overlong (>10B)
  /// encodings. *p is only advanced on success.
  static bool GetVarint(const char** p, const char* end, std::uint64_t* v);
};

}  // namespace trinity::storage

#endif  // TRINITY_STORAGE_CELL_CODEC_H_
