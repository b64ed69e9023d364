#include "compute/exchange.h"

#include <utility>

namespace trinity::compute {

Exchange::Exchange(net::Fabric& fabric, PayloadFn on_payload)
    : fabric_(fabric),
      num_machines_(fabric.num_machines()),
      on_payload_(std::move(on_payload)),
      outboxes_(static_cast<std::size_t>(num_machines_) * num_machines_),
      lease_(fabric) {
  for (MachineId m = 0; m < num_machines_; ++m) {
    fabric_.RegisterAsyncHandler(m, lease_.id(),
                                 [this, m](MachineId src, Slice payload) {
                                   on_payload_(m, src, payload);
                                 });
  }
}

void Exchange::AddPacked(MachineId src, MachineId dst, Slice records,
                         std::uint64_t count) {
  Outbox& outbox = outboxes_[src * num_machines_ + dst];
  outbox.bytes.append(records.data(), records.size());
  outbox.count += count;
}

Status Exchange::Flush() {
  Status first;
  for (MachineId src = 0; src < num_machines_; ++src) {
    for (MachineId dst = 0; dst < num_machines_; ++dst) {
      Outbox& outbox = outboxes_[src * num_machines_ + dst];
      if (outbox.count == 0) continue;
      if (src == dst) {
        on_payload_(dst, src, Slice(outbox.bytes));
      } else {
        Status s = fabric_.SendPacked(src, dst, lease_.id(),
                                      Slice(outbox.bytes), outbox.count);
        if (first.ok()) first = s;
      }
      outbox.bytes.clear();
      outbox.count = 0;
    }
  }
  return first;
}

void Exchange::Clear() {
  for (Outbox& outbox : outboxes_) {
    outbox.bytes.clear();
    outbox.count = 0;
  }
}

}  // namespace trinity::compute
