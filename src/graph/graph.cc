#include "graph/graph.h"

#include <cstring>

#include "common/serializer.h"

namespace trinity::graph {

Graph::Graph(cloud::MemoryCloud* cloud, Options options)
    : cloud_(cloud), options_(options) {}

Graph::Graph(cloud::MemoryCloud* cloud) : Graph(cloud, Options()) {}

std::string Graph::EncodeNode(const NodeImage& node) {
  BinaryWriter writer;
  writer.PutU32(static_cast<std::uint32_t>(node.in.size()));
  writer.PutU32(static_cast<std::uint32_t>(node.data.size()));
  writer.PutRaw(node.data.data(), node.data.size());
  for (CellId v : node.in) writer.PutU64(v);
  for (CellId v : node.out) writer.PutU64(v);
  return writer.Release();
}

Status Graph::DecodeNode(CellId id, Slice blob, NodeImage* out) {
  storage::NodeShape shape;
  if (!storage::CellCodec::ParseNodeShape(blob, &shape)) {
    return Status::Corruption("malformed node cell");
  }
  out->id = id;
  out->data.assign(blob.data() + 8, shape.data_len);
  out->in.resize(shape.in_count);
  if (shape.in_count > 0) {
    std::memcpy(out->in.data(), blob.data() + shape.in_begin,
                shape.in_count * 8);
  }
  out->out.resize(shape.out_count);
  if (shape.out_count > 0) {
    std::memcpy(out->out.data(), blob.data() + shape.out_begin,
                shape.out_count * 8);
  }
  return Status::OK();
}

Status Graph::AddNode(CellId id, Slice data) {
  return AddNodeFrom(cloud_->client_id(), id, data);
}

Status Graph::AddNodeFrom(MachineId src, CellId id, Slice data) {
  NodeImage node;
  node.id = id;
  node.data = data.ToString();
  return cloud_->AddCellFrom(src, id, Slice(EncodeNode(node)));
}

Status Graph::BulkAddNode(MachineId src, const NodeImage& node) {
  return cloud_->AddCellFrom(src, node.id, Slice(EncodeNode(node)));
}

Status Graph::AddEdge(CellId from, CellId to) {
  return AddEdgeFrom(cloud_->client_id(), from, to);
}

Status Graph::AddEdgeFrom(MachineId src, CellId from, CellId to) {
  // Appending to the out-list is the fast path: the out ids live at the end
  // of the blob, so this is a trunk append that exploits reservations.
  char raw[8];
  std::memcpy(raw, &to, 8);
  Status s = cloud_->AppendToCellFrom(src, from, Slice(raw, 8));
  if (!s.ok()) return s;
  if (!options_.directed) {
    std::memcpy(raw, &from, 8);
    return cloud_->AppendToCellFrom(src, to, Slice(raw, 8));
  }
  if (options_.track_inlinks) {
    return InsertInlink(src, to, from);
  }
  return Status::OK();
}

Status Graph::AppendRawOutEntry(CellId node, CellId value) {
  char raw[8];
  std::memcpy(raw, &value, 8);
  return cloud_->AppendToCellFrom(cloud_->client_id(), node, Slice(raw, 8));
}

Status Graph::InsertRawInEntry(CellId node, CellId value) {
  return InsertInlink(cloud_->client_id(), node, value);
}

Status Graph::InsertInlink(MachineId src, CellId node, CellId from) {
  // In-links sit in the middle of the blob: read-modify-write.
  std::string blob;
  Status s = cloud_->GetCellFrom(src, node, &blob);
  if (!s.ok()) return s;
  storage::NodeShape shape;
  if (!storage::CellCodec::ParseNodeShape(Slice(blob), &shape)) {
    return Status::Corruption("malformed node cell");
  }
  const std::uint32_t in_count = shape.in_count + 1;
  std::memcpy(blob.data(), &in_count, 4);
  char raw[8];
  std::memcpy(raw, &from, 8);
  blob.insert(shape.out_begin, raw, 8);  // After the existing in-ids.
  return cloud_->PutCellFrom(src, node, Slice(blob));
}

bool Graph::HasNode(CellId id) {
  bool exists = false;
  return cloud_->Contains(id, &exists).ok() && exists;
}

Status Graph::GetOutlinks(CellId id, std::vector<CellId>* out) {
  return GetOutlinksFrom(cloud_->client_id(), id, out);
}

Status Graph::GetOutlinksFrom(MachineId src, CellId id,
                              std::vector<CellId>* out) {
  std::string blob;
  Status s = cloud_->GetCellFrom(src, id, &blob);
  if (!s.ok()) return s;
  NodeImage node;
  s = DecodeNode(id, Slice(blob), &node);
  if (!s.ok()) return s;
  *out = std::move(node.out);
  return Status::OK();
}

Status Graph::GetInlinks(CellId id, std::vector<CellId>* out) {
  return GetInlinksFrom(cloud_->client_id(), id, out);
}

Status Graph::GetInlinksFrom(MachineId src, CellId id,
                             std::vector<CellId>* out) {
  if (options_.directed && !options_.track_inlinks) {
    return Status::NotSupported("in-links not tracked");
  }
  std::string blob;
  Status s = cloud_->GetCellFrom(src, id, &blob);
  if (!s.ok()) return s;
  NodeImage node;
  s = DecodeNode(id, Slice(blob), &node);
  if (!s.ok()) return s;
  // Undirected graphs store all adjacency in the out-list.
  *out = options_.directed ? std::move(node.in) : std::move(node.out);
  return Status::OK();
}

Status Graph::GetNodeData(CellId id, std::string* out) {
  return GetNodeDataFrom(cloud_->client_id(), id, out);
}

Status Graph::GetNodeDataFrom(MachineId src, CellId id, std::string* out) {
  std::string blob;
  Status s = cloud_->GetCellFrom(src, id, &blob);
  if (!s.ok()) return s;
  NodeImage node;
  s = DecodeNode(id, Slice(blob), &node);
  if (!s.ok()) return s;
  *out = std::move(node.data);
  return Status::OK();
}

Status Graph::SetNodeData(CellId id, Slice data) {
  std::string blob;
  Status s = cloud_->GetCell(id, &blob);
  if (!s.ok()) return s;
  NodeImage node;
  s = DecodeNode(id, Slice(blob), &node);
  if (!s.ok()) return s;
  node.data = data.ToString();
  return cloud_->PutCell(id, Slice(EncodeNode(node)));
}

Status Graph::OutDegreeFrom(MachineId src, CellId id, std::size_t* out) {
  std::string blob;
  Status s = cloud_->GetCellFrom(src, id, &blob);
  if (!s.ok()) return s;
  storage::NodeShape shape;
  if (!storage::CellCodec::ParseNodeShape(Slice(blob), &shape)) {
    return Status::Corruption("malformed node cell");
  }
  *out = shape.out_count;
  return Status::OK();
}

namespace {

/// A node visit's id scratch, taken from a per-thread pool on entry and
/// given back on exit: a visitor that visits another node gets a scratch of
/// its own, and in steady state no visit allocates.
class VisitScratch {
 public:
  VisitScratch() : pool_(Pool()) {
    if (!pool_.empty()) {
      ids_.swap(pool_.back());
      pool_.pop_back();
    }
  }
  ~VisitScratch() { pool_.push_back(std::move(ids_)); }
  VisitScratch(const VisitScratch&) = delete;
  VisitScratch& operator=(const VisitScratch&) = delete;

  std::vector<CellId>* get() { return &ids_; }

 private:
  static std::vector<std::vector<CellId>>& Pool() {
    thread_local std::vector<std::vector<CellId>> pool;
    return pool;
  }
  std::vector<std::vector<CellId>>& pool_;
  std::vector<CellId> ids_;
};

}  // namespace

Status Graph::VisitLocalNode(MachineId machine, CellId id,
                             const LocalVisitor& fn, NodeParts parts) const {
  storage::MemoryStorage* store = cloud_->storage(machine);
  if (store == nullptr) return Status::NotFound("not a slave");
  return VisitLocalNode(store, id, fn, parts);
}

Status Graph::VisitLocalNode(storage::MemoryStorage* store, CellId id,
                             const LocalVisitor& fn, NodeParts parts) const {
  if (store == nullptr) return Status::NotFound("not a slave");
  storage::MemoryTrunk* trunk = store->trunk(cloud_->TrunkOf(id));
  if (trunk == nullptr) return Status::NotFound("node not local");
  VisitScratch scratch;
  storage::MemoryTrunk::ConstAccessor accessor;
  storage::NodeView node;
  Status s = trunk->AccessNode(id, parts, scratch.get(), &accessor, &node);
  if (!s.ok()) return s;
  fn(node.data, node.in, node.in_count, node.out, node.out_count);
  return Status::OK();
}

std::vector<CellId> Graph::LocalNodes(MachineId machine) const {
  std::vector<CellId> result;
  storage::MemoryStorage* store = cloud_->storage(machine);
  if (store == nullptr) return result;
  for (TrunkId t : store->trunk_ids()) {
    storage::MemoryTrunk* trunk = store->trunk(t);
    if (trunk == nullptr) continue;
    std::vector<CellId> ids = trunk->CellIds();
    result.insert(result.end(), ids.begin(), ids.end());
  }
  return result;
}

std::uint64_t Graph::CountNodes() const {
  return cloud_->TotalCellCount();
}

}  // namespace trinity::graph
