#ifndef TRINITY_COMPUTE_EXCHANGE_H_
#define TRINITY_COMPUTE_EXCHANGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "compute/packed_messages.h"
#include "net/fabric.h"

namespace trinity::compute {

/// Packed one-sided message exchange between the machines of a fabric
/// (paper §4.2): senders append records to a machines×machines outbox grid
/// and Flush ships each non-empty (src,dst) pair as one packed payload.
/// BSP supersteps, async sweeps, traversal rounds and snapshot builds all
/// run on it. Each exchange leases its own handler id, so any number of
/// them share a cloud, and its handlers die with it.
class Exchange {
 public:
  /// Receives one packed payload (decode with ForEachPackedRecord) on
  /// machine `dst` from `src`. Remote payloads arrive inside the fabric's
  /// delivery, metered to `dst`; local ones are handed over directly.
  using PayloadFn =
      std::function<void(MachineId dst, MachineId src, Slice payload)>;

  Exchange(net::Fabric& fabric, PayloadFn on_payload);

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  /// Appends one record to the (src,dst) outbox. Lock-free as long as each
  /// source row is written by one thread at a time and never during Flush.
  void Add(MachineId src, MachineId dst, CellId target, Slice msg) {
    Outbox& outbox = outboxes_[src * num_machines_ + dst];
    AppendPackedRecord(&outbox.bytes, target, msg);
    ++outbox.count;
  }
  /// Appends `count` already-packed records.
  void AddPacked(MachineId src, MachineId dst, Slice records,
                 std::uint64_t count);

  /// Drains every non-empty pair in canonical order — src ascending, then
  /// dst ascending, records in append order — so parallel senders stay
  /// deterministic. A local pair goes straight to the callback, bypassing
  /// the fabric and its meters; a remote pair is one Fabric::SendPacked.
  /// Drains every pair even when one fails and returns the first error (a
  /// dead endpoint, whose batch the fabric counts as dropped).
  Status Flush();

  /// Discards every queued record (a run aborted between barriers).
  void Clear();

  net::HandlerId handler_id() const { return lease_.id(); }

 private:
  struct Outbox {
    std::string bytes;
    std::uint64_t count = 0;
  };

  net::Fabric& fabric_;
  const int num_machines_;
  const PayloadFn on_payload_;
  std::vector<Outbox> outboxes_;  ///< Index src * num_machines_ + dst.
  /// Last, so its handlers (which call on_payload_) go first.
  net::Fabric::HandlerLease lease_;
};

}  // namespace trinity::compute

#endif  // TRINITY_COMPUTE_EXCHANGE_H_
