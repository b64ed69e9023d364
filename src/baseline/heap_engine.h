#ifndef TRINITY_BASELINE_HEAP_ENGINE_H_
#define TRINITY_BASELINE_HEAP_ENGINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/generators.h"
#include "net/cost_model.h"
#include "net/fabric.h"

namespace trinity::baseline {

/// Giraph-like vertex-centric PageRank baseline for the Fig 12(d)
/// comparison.
///
/// Giraph keeps every vertex, edge and message as a JVM runtime object.
/// Paper §7: "graph nodes exist as runtime objects in memory. They take
/// much more memory than Trinity's plain blobs", and the engine pays
/// serialization, boxing and GC on every superstep. This baseline runs the
/// same BSP PageRank as Trinity but with Giraph's representation
/// mechanisms:
///  * vertices/edges/messages carry per-object header overheads in the
///    memory accounting;
///  * every message really is an individually heap-allocated object
///    (std::unique_ptr<double>), so allocator pressure is measured, not
///    assumed;
///  * a GC/serialization CPU factor scales the measured superstep time;
///  * message envelopes on the wire carry Writable-style framing bytes.
class HeapEngine {
 public:
  struct Options {
    int num_machines = 16;
    int iterations = 5;
    double damping = 0.85;
    net::CostModel::Params cost;
    /// JVM-ish overheads (bytes).
    std::size_t object_header_bytes = 16;
    std::size_t per_vertex_object_bytes = 80;   ///< Vertex + value + arrays.
    std::size_t per_edge_object_bytes = 24;     ///< Edge object + boxed id.
    std::size_t per_message_wire_bytes = 80;    ///< Writable envelope.
    /// GC + boxing + (de)serialization multiplier on measured CPU. JVM
    /// vertex-centric frameworks routinely spend an order of magnitude more
    /// CPU per edge than a blob-scanning C++/C# engine.
    double cpu_factor = 12.0;
    /// Fixed per-superstep coordination cost (Hadoop task scheduling +
    /// ZooKeeper barrier), in seconds at paper scale; scaled by graph size
    /// is not appropriate, so it is charged per superstep.
    double superstep_overhead_seconds = 0.05;
  };

  struct RunStats {
    double seconds_per_iteration = 0;  ///< The Fig 12(d) quantity.
    double modeled_seconds = 0;
    std::uint64_t memory_bytes = 0;
    std::uint64_t messages = 0;
    int supersteps = 0;
  };

  explicit HeapEngine(Options options);

  HeapEngine(const HeapEngine&) = delete;
  HeapEngine& operator=(const HeapEngine&) = delete;

  Status LoadGraph(const graph::Generators::EdgeList& edges);

  Status RunPageRank(RunStats* stats);

 private:
  /// Vertices as heap objects with individually allocated values —
  /// deliberately the representation the paper criticizes.
  struct VertexObject {
    std::unique_ptr<double> rank;
    std::vector<CellId> edges;
    std::vector<std::unique_ptr<double>> inbox;
  };

  struct Machine {
    std::unordered_map<CellId, std::unique_ptr<VertexObject>> vertices;
  };

  MachineId OwnerOf(CellId v) const {
    return static_cast<MachineId>(Mix64(v) % options_.num_machines);
  }

  Options options_;
  std::unique_ptr<net::Fabric> fabric_;
  /// The message handler id; its handlers capture `this`.
  net::Fabric::HandlerLease lease_;
  std::vector<Machine> machines_;
  std::uint64_t num_nodes_ = 0;
  std::uint64_t num_edges_ = 0;
};

}  // namespace trinity::baseline

#endif  // TRINITY_BASELINE_HEAP_ENGINE_H_
