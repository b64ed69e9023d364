#include "layers.h"

namespace trinity::perfbench {

void EmitCounters(Json& out, cloud::MemoryCloud& cloud,
                  serving::QueryFrontend* frontend,
                  const tfs::Tfs* tfs) {
  const storage::MemoryTrunk::Stats t = cloud.AggregateTrunkStats();
  out.Begin("storage")
      .Int("live_cells", t.live_cells)
      .Int("live_bytes", t.live_bytes)
      .Int("resident_bytes", t.resident_bytes)
      .Int("compressed_bytes", t.compressed_bytes)
      .Int("spilled_bytes", t.spilled_bytes)
      .Int("defrag_passes", t.defrag_passes)
      .Int("cells_moved", t.cells_moved)
      .Int("cells_evicted", t.cells_evicted)
      .Int("cells_faulted", t.cells_faulted)
      .Int("cold_bytes_read", t.cold_bytes_read)
      .Int("shared_reads", t.shared_reads)
      .Int("read_lock_contended", t.read_lock_contended)
      .Int("write_lock_contended", t.write_lock_contended)
      .Int("cell_lock_contended", t.cell_lock_contended)
      .End();
  const net::NetworkStats n = cloud.fabric().stats();
  out.Begin("fabric")
      .Int("messages", n.messages)
      .Int("transfers", n.transfers)
      .Int("bytes", n.bytes)
      .Int("sync_calls", n.sync_calls)
      .End();
  tfs::Tfs::Stats f;
  if (tfs != nullptr) f = tfs->stats();
  out.Begin("tfs")
      .Int("bytes_read", f.bytes_read)
      .Int("bytes_written", f.bytes_written)
      .Int("files_read", f.files_read)
      .End();
  serving::ServingStats s;
  txn::TxnManager::Stats x;
  if (frontend != nullptr) {
    s = frontend->stats();
    x = frontend->txn_manager()->stats();
  }
  out.Begin("serving")
      .Int("received", s.received)
      .Int("shed", s.shed)
      .Int("deadline_exceeded", s.deadline_exceeded)
      .Int("retries_granted", s.retries_granted)
      .Int("retries_denied", s.retries_denied)
      .Int("txn_committed", s.txn_committed)
      .Int("txn_conflicts", s.txn_conflicts)
      .Int("txn_conflict_retries", s.txn_conflict_retries)
      .End();
  out.Begin("txn")
      .Int("committed", x.committed)
      .Int("aborted", x.aborted)
      .Int("rolled_forward", x.rolled_forward)
      .Int("rolled_back", x.rolled_back)
      .End();
}

void ReplayGets(Json& out, serving::QueryFrontend& frontend,
                cloud::MemoryCloud& cloud, const std::vector<CellId>& keys,
                std::uint64_t first_req, SpanLog* spans) {
  const std::uint8_t l_serving = spans->Layer("serving.get");
  const std::uint8_t l_cloud = spans->Layer("cloud.get");
  const std::uint8_t l_trunk = spans->Layer("storage.trunk_get");
  std::vector<double> top, mid, low;
  std::uint64_t failed = 0;
  std::uint64_t cloud_sync_calls = 0;
  std::string value;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const CellId id = keys[j];
    const std::uint64_t req = first_req + j;
    serving::QueryFrontend::Request request;
    request.type = serving::QueryFrontend::RequestType::kGet;
    request.id = id;
    serving::QueryFrontend::Response response;
    std::int64_t a = NowNs();
    const Status s0 = frontend.Execute(request, &response);
    std::int64_t b = NowNs();
    spans->Add({req, l_serving, 0, a, b});
    const double t_top = static_cast<double>(b - a);

    Status s1;
    const net::NetworkStats d = FabricDelta(cloud, [&] {
      a = NowNs();
      s1 = cloud.GetCell(id, &value);
      b = NowNs();
    });
    cloud_sync_calls += d.sync_calls;
    spans->Add({req, l_cloud, 1, a, b});
    const double t_mid = static_cast<double>(b - a);

    storage::MemoryStorage* store = cloud.storage(cloud.MachineOf(id));
    storage::MemoryTrunk* trunk =
        store != nullptr ? store->trunk(cloud.TrunkOf(id)) : nullptr;
    Status s2 = Status::NotFound("trunk not hosted");
    a = NowNs();
    if (trunk != nullptr) s2 = trunk->GetCell(id, &value);
    b = NowNs();
    spans->Add({req, l_trunk, 2, a, b});
    const double t_low = static_cast<double>(b - a);

    if (!s0.ok() || !s1.ok() || !s2.ok()) {
      ++failed;
      continue;
    }
    top.push_back(t_top / 1e3);
    mid.push_back(t_mid / 1e3);
    low.push_back(t_low);
  }
  out.Begin("get")
      .Int("samples", keys.size())
      .Int("failed", failed)
      .Num("serving_us", Median(top))
      .Num("cloud_us", Median(mid))
      .Num("trunk_ns", Median(low))
      .Num("cloud_sync_calls_per_op",
           keys.empty() ? 0.0
                        : static_cast<double>(cloud_sync_calls) /
                              static_cast<double>(keys.size()))
      .End();
}

}  // namespace trinity::perfbench
