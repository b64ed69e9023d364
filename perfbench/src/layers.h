// Helpers shared by the workloads: counter snapshots through the public
// stats() accessors and the layered Get replay used by traced runs.

#ifndef TRINITY_PERFBENCH_LAYERS_H_
#define TRINITY_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "cloud/memory_cloud.h"
#include "serving/query_frontend.h"
#include "tfs/tfs.h"

namespace trinity::perfbench {

/// Emits the cumulative serving, fabric, trunk and (when present) TFS
/// counters. run.py differences two snapshots; a counter that went
/// backwards marks its metric invalid.
void EmitCounters(Json& out, cloud::MemoryCloud& cloud,
                  serving::QueryFrontend* frontend,
                  const tfs::Tfs* tfs);

/// Times one request id through three layers in turn, top first, with the
/// same request id on every span: the frontend (serving), the memory cloud
/// from the client endpoint (cloud) and the owner's trunk (storage). Emits
/// each layer's median span; run.py derives the self times.
void ReplayGets(Json& out, serving::QueryFrontend& frontend,
                cloud::MemoryCloud& cloud, const std::vector<CellId>& keys,
                std::uint64_t first_req, SpanLog* spans);

/// Fabric sync calls and bytes added by `fn`; fabric meters are global and
/// only differenced here, never reset.
template <typename Fn>
net::NetworkStats FabricDelta(cloud::MemoryCloud& cloud, Fn&& fn) {
  const net::NetworkStats before = cloud.fabric().stats();
  fn();
  const net::NetworkStats after = cloud.fabric().stats();
  net::NetworkStats d;
  d.messages = after.messages - before.messages;
  d.transfers = after.transfers - before.transfers;
  d.bytes = after.bytes - before.bytes;
  d.sync_calls = after.sync_calls - before.sync_calls;
  return d;
}

}  // namespace trinity::perfbench

#endif  // TRINITY_PERFBENCH_LAYERS_H_
