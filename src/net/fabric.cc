#include "net/fabric.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace trinity::net {

Fabric::Fabric(int num_machines) : Fabric(num_machines, Params()) {}

Fabric::Fabric(int num_machines, Params params)
    : num_machines_(num_machines), params_(params), meters_(num_machines) {
  TRINITY_CHECK(num_machines >= 1, "fabric needs at least one machine");
  async_handlers_.resize(num_machines_);
  sync_handlers_.resize(num_machines_);
  pair_buffers_.resize(static_cast<std::size_t>(num_machines_) *
                       num_machines_);
  const std::size_t n = static_cast<std::size_t>(num_machines_);
  machine_up_ = std::make_unique<std::atomic<bool>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    machine_up_[i].store(true, std::memory_order_relaxed);
  }
}

void Fabric::RegisterAsyncHandler(MachineId machine, HandlerId id,
                                  AsyncHandler fn) {
  std::lock_guard<std::mutex> lock(mu_);
  async_handlers_[machine][id] = std::move(fn);
}

void Fabric::RegisterSyncHandler(MachineId machine, HandlerId id,
                                 SyncHandler fn) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_handlers_[machine][id] = std::move(fn);
}

HandlerId Fabric::AcquireHandlerId() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_handler_ids_.empty()) return next_handler_id_++;
  const HandlerId id = free_handler_ids_.back();
  free_handler_ids_.pop_back();
  return id;
}

void Fabric::ReleaseHandlerId(HandlerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int m = 0; m < num_machines_; ++m) {
    async_handlers_[m].erase(id);
    sync_handlers_[m].erase(id);
  }
  // Buffered sends to this id must not reach the id's next owner.
  for (PairBuffer& buf : pair_buffers_) {
    auto stale = std::stable_partition(
        buf.messages.begin(), buf.messages.end(),
        [id](const PackedMessage& msg) { return msg.handler != id; });
    for (auto it = stale; it != buf.messages.end(); ++it) {
      buf.bytes -= it->payload.size() + params_.frame_overhead_bytes;
      Count(&NetworkStats::dropped, 1);
    }
    buf.messages.erase(stale, buf.messages.end());
  }
  free_handler_ids_.push_back(id);
}

Status Fabric::StartSend(MachineId src, MachineId dst, HandlerId id,
                         Slice payload, std::uint64_t message_count,
                         int* copies) {
  *copies = 0;
  if (dst < 0 || dst >= num_machines_) {
    return Status::InvalidArgument("bad destination machine");
  }
  Count(&NetworkStats::messages, message_count);
  if (src >= 0 && src < num_machines_ &&
      !machine_up_[src].load(std::memory_order_acquire)) {
    // A crashed machine cannot originate traffic; callers still running on
    // its behalf (e.g. a vertex program mid-superstep) see the failure.
    Count(&NetworkStats::dropped, message_count);
    return Status::Unavailable("source machine is down");
  }
  if (!machine_up_[dst].load(std::memory_order_acquire)) {
    Count(&NetworkStats::dropped, message_count);
    return Status::Unavailable("destination machine is down");
  }
  if (src == dst) {
    Count(&NetworkStats::local_messages, message_count);
  }
  int n = 1;
  if (injector_ != nullptr) {
    // The injector sees one message event per send: a drop loses the whole
    // packed batch (the unit that actually crosses the wire).
    switch (injector_->OnAsyncMessage(src, dst, id)) {
      case FaultInjector::AsyncAction::kDrop:
        // Silent loss: the sender believes the send succeeded — that is the
        // fault being modeled.
        Count(&NetworkStats::dropped, message_count);
        Count(&NetworkStats::injected_drops, 1);
        MaybeTriggerCrashes(src, dst);
        return Status::OK();
      case FaultInjector::AsyncAction::kDuplicate:
        Count(&NetworkStats::injected_duplicates, 1);
        n = 2;
        break;
      case FaultInjector::AsyncAction::kDeliver:
        break;
    }
  }
  if (src == dst) {
    // Local delivery never touches the wire.
    for (int c = 0; c < n; ++c) Deliver(src, dst, id, payload);
    MaybeTriggerCrashes(src, dst);
    return Status::OK();
  }
  *copies = n;
  return Status::OK();
}

Status Fabric::SendAsync(MachineId src, MachineId dst, HandlerId id,
                         Slice payload) {
  int copies = 0;
  Status started = StartSend(src, dst, id, payload, 1, &copies);
  if (copies == 0) return started;
  if (!params_.pack_messages) {
    // Ablation mode: every message is its own physical transfer.
    for (int c = 0; c < copies; ++c) {
      AccountTransfer(src, dst, payload.size() + params_.frame_overhead_bytes,
                      1);
      Deliver(src, dst, id, payload);
    }
    MaybeTriggerCrashes(src, dst);
    return Status::OK();
  }
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PairBuffer& buf = pair_buffers_[PairIndex(src, dst)];
    for (int c = 0; c < copies; ++c) {
      buf.messages.push_back(PackedMessage{id, payload.ToString()});
      buf.bytes += payload.size() + params_.frame_overhead_bytes;
    }
    flush_now = buf.bytes >= params_.pack_threshold_bytes;
  }
  if (flush_now) {
    std::unique_lock<std::mutex> lock(mu_);
    FlushPairLocked(src, dst, /*force=*/false);
  }
  MaybeTriggerCrashes(src, dst);
  return Status::OK();
}

Status Fabric::SendPacked(MachineId src, MachineId dst, HandlerId id,
                          Slice payload, std::uint64_t message_count) {
  int copies = 0;
  Status started = StartSend(src, dst, id, payload, message_count, &copies);
  if (copies == 0) return started;
  std::size_t transfers;
  std::size_t wire_bytes;
  if (params_.pack_messages) {
    transfers = payload.empty()
                    ? 1
                    : (payload.size() + params_.pack_threshold_bytes - 1) /
                          params_.pack_threshold_bytes;
    wire_bytes = payload.size() + transfers * params_.frame_overhead_bytes;
  } else {
    // Ablation baseline: the caller packed in vain — meter it as if every
    // logical message went out framed on its own.
    transfers = message_count > 0 ? message_count : 1;
    wire_bytes = payload.size() + transfers * params_.frame_overhead_bytes;
  }
  for (int c = 0; c < copies; ++c) {
    AccountTransfer(src, dst, wire_bytes, transfers);
    Deliver(src, dst, id, payload);
  }
  MaybeTriggerCrashes(src, dst);
  return Status::OK();
}

Status Fabric::Call(MachineId src, MachineId dst, HandlerId id, Slice payload,
                    std::string* response, CallContext* ctx) {
  if (dst < 0 || dst >= num_machines_) {
    return Status::InvalidArgument("bad destination machine");
  }
  if (ctx != nullptr) {
    // A cancelled or already-expired request never touches the wire.
    Status gate = ctx->Check();
    if (!gate.ok()) return gate;
  }
  Count(&NetworkStats::sync_calls, 1);
  if (src >= 0 && src < num_machines_ &&
      !machine_up_[src].load(std::memory_order_acquire)) {
    Count(&NetworkStats::dropped, 1);
    return Status::Unavailable("source machine is down");
  }
  if (!machine_up_[dst].load(std::memory_order_acquire)) {
    Count(&NetworkStats::dropped, 1);
    return Status::Unavailable("destination machine is down");
  }
  if (injector_ != nullptr) {
    // An injected failure happens "on the wire": the handler never runs,
    // exactly as if the request (or its response) was lost.
    Status injected = injector_->OnCall(src, dst, id);
    if (!injected.ok()) {
      Count(&NetworkStats::injected_call_failures, 1);
      MaybeTriggerCrashes(src, dst);
      return injected;
    }
    const double delay = injector_->CallDelayMicros(src, dst, id);
    if (delay > 0.0) {
      // A straggler call: the caller blocks for `delay` simulated micros
      // before the handler runs. Charge the wait to the caller's CPU meter
      // and to the request's deadline budget.
      Count(&NetworkStats::injected_call_delays, 1);
      if (src >= 0 && src < num_machines_) AddCpuMicros(src, delay);
      if (ctx != nullptr) {
        if (ctx->has_deadline() && delay >= ctx->remaining_micros()) {
          // The deadline fires mid-wait; abandon the straggler.
          ctx->Consume(ctx->remaining_micros());
          MaybeTriggerCrashes(src, dst);
          return Status::DeadlineExceeded(
              "injected straggler delay outlived the request deadline");
        }
        ctx->Consume(delay);
      }
    }
  }
  SyncHandler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sync_handlers_[dst].find(id);
    if (it == sync_handlers_[dst].end()) {
      return Status::NotFound("no sync handler registered");
    }
    handler = it->second;
  }
  if (src != dst) {
    // Request + response are two physical transfers.
    AccountTransfer(src, dst, payload.size() + params_.frame_overhead_bytes,
                    1);
  } else {
    Count(&NetworkStats::local_messages, 1);
  }
  Status s;
  {
    MeterScope meter(*this, dst);
    s = handler(src, payload, response);
  }
  if (src != dst && response != nullptr) {
    AccountTransfer(dst, src, response->size() + params_.frame_overhead_bytes,
                    1);
  }
  MaybeTriggerCrashes(src, dst);
  return s;
}

void Fabric::Flush(MachineId src) {
  std::unique_lock<std::mutex> lock(mu_);
  for (MachineId dst = 0; dst < num_machines_; ++dst) {
    FlushPairLocked(src, dst, /*force=*/false);
  }
}

void Fabric::FlushAll() {
  // Delivering packed messages can enqueue new ones (recursive algorithms),
  // so iterate until the whole fabric drains. FlushAll overrides injected
  // flush delays — it is the fabric-wide barrier.
  for (;;) {
    bool any = false;
    for (MachineId src = 0; src < num_machines_; ++src) {
      for (MachineId dst = 0; dst < num_machines_; ++dst) {
        std::unique_lock<std::mutex> lock(mu_);
        if (!pair_buffers_[PairIndex(src, dst)].messages.empty()) {
          any = true;
          FlushPairLocked(src, dst, /*force=*/true);
        }
      }
    }
    if (!any) return;
  }
}

void Fabric::FlushPairLocked(MachineId src, MachineId dst, bool force) {
  // Precondition: mu_ held by the caller's unique_lock. We move the buffer
  // out, release the lock, and deliver — handlers may legally re-enter
  // SendAsync on this pair.
  PairBuffer& buf = pair_buffers_[PairIndex(src, dst)];
  if (buf.messages.empty()) return;
  if (!force && injector_ != nullptr && injector_->DelayFlush(src, dst)) {
    // Injected delay: the buffer stays queued until the next FlushAll.
    Count(&NetworkStats::delayed_flushes, 1);
    return;
  }
  std::vector<PackedMessage> batch = std::move(buf.messages);
  std::size_t bytes = buf.bytes;
  buf.messages.clear();
  buf.bytes = 0;
  const bool alive = machine_up_[dst].load(std::memory_order_acquire);
  if (!alive) {
    Count(&NetworkStats::dropped, batch.size());
    return;
  }
  mu_.unlock();
  AccountTransfer(src, dst, bytes, 1);
  for (const auto& msg : batch) {
    Deliver(src, dst, msg.handler, Slice(msg.payload));
  }
  mu_.lock();
}

void Fabric::Deliver(MachineId src, MachineId dst, HandlerId id,
                     Slice payload) {
  AsyncHandler handler;
  {
    if (!machine_up_[dst].load(std::memory_order_acquire)) {
      Count(&NetworkStats::dropped, 1);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = async_handlers_[dst].find(id);
    if (it == async_handlers_[dst].end()) {
      TRINITY_WARN("no async handler %u on machine %d", id, dst);
      return;
    }
    handler = it->second;
  }
  MeterScope meter(*this, dst);
  handler(src, payload);
}

void Fabric::AccountTransfer(MachineId src, MachineId dst, std::size_t bytes,
                             std::size_t transfer_count) {
  Charge([&](Meters& m) { m.AddTransfer(src, dst, bytes, transfer_count); });
}

void Fabric::Count(Meters::Counter counter, std::uint64_t n) {
  Charge([&](Meters& m) { m.Add(counter, n); });
}

void Fabric::SetFaultInjector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

void Fabric::SetCrashListener(std::function<void(MachineId)> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_listener_ = std::move(listener);
}

void Fabric::MaybeTriggerCrashes(MachineId src, MachineId dst) {
  if (injector_ == nullptr) return;
  for (MachineId m : injector_->NoteMessage(src, dst)) {
    // exchange() makes the down-transition race-free: exactly one caller
    // observes true→false and fires the listener.
    const bool fired = machine_up_[m].exchange(false, std::memory_order_acq_rel);
    if (fired) Count(&NetworkStats::injected_crashes, 1);
    // The listener runs outside mu_ so it may call back into the fabric
    // (e.g. the memory cloud dropping the crashed machine's storage).
    if (fired && crash_listener_) crash_listener_(m);
  }
}

void Fabric::SetMachineDown(MachineId machine) {
  machine_up_[machine].store(false, std::memory_order_release);
  // Messages already queued toward a dead machine will be dropped at flush.
}

void Fabric::SetMachineUp(MachineId machine) {
  machine_up_[machine].store(true, std::memory_order_release);
}

bool Fabric::IsMachineUp(MachineId machine) const {
  if (machine < 0 || machine >= num_machines_) return false;
  return machine_up_[machine].load(std::memory_order_acquire);
}

void Fabric::AddCpuMicros(MachineId machine, double micros) {
  Charge([&](Meters& m) { m.AddCpuMicros(machine, micros); });
}

// ------------------------------------------------------------------ Meters

void Meters::AddTransfer(MachineId src, MachineId dst, std::uint64_t bytes,
                         std::uint64_t transfers) {
  Add(&NetworkStats::transfers, transfers);
  Add(&NetworkStats::bytes, bytes);
  machines_[src].bytes_out.fetch_add(bytes, std::memory_order_relaxed);
  machines_[src].transfers_out.fetch_add(transfers, std::memory_order_relaxed);
  machines_[dst].bytes_in.fetch_add(bytes, std::memory_order_relaxed);
  machines_[dst].transfers_in.fetch_add(transfers, std::memory_order_relaxed);
}

void Meters::AddCpuMicros(MachineId machine, double micros) {
  machines_[machine].cpu_micros.fetch_add(micros, std::memory_order_relaxed);
}

void Meters::Reset() {
  totals_.Reset();
  for (Machine& m : machines_) {
    m.cpu_micros.store(0.0, std::memory_order_relaxed);
    m.bytes_in.store(0, std::memory_order_relaxed);
    m.bytes_out.store(0, std::memory_order_relaxed);
    m.transfers_in.store(0, std::memory_order_relaxed);
    m.transfers_out.store(0, std::memory_order_relaxed);
  }
}

double Meters::MaxCpuMicros() const {
  double max = 0.0;
  for (const Machine& m : machines_) {
    max = std::max(max, m.cpu_micros.load(std::memory_order_relaxed));
  }
  return max;
}

}  // namespace trinity::net
