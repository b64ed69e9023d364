#include "net/fabric.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace trinity::net {

Fabric::Fabric(int num_machines) : Fabric(num_machines, Params()) {}

Fabric::Fabric(int num_machines, Params params)
    : num_machines_(num_machines), params_(params) {
  TRINITY_CHECK(num_machines >= 1, "fabric needs at least one machine");
  async_handlers_.resize(num_machines_);
  sync_handlers_.resize(num_machines_);
  pair_buffers_.resize(static_cast<std::size_t>(num_machines_) *
                       num_machines_);
  const std::size_t n = static_cast<std::size_t>(num_machines_);
  machine_up_ = std::make_unique<std::atomic<bool>[]>(n);
  cpu_micros_ = std::make_unique<std::atomic<double>[]>(n);
  traffic_bytes_in_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  traffic_bytes_out_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  traffic_transfers_in_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  traffic_transfers_out_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    machine_up_[i].store(true, std::memory_order_relaxed);
    cpu_micros_[i].store(0.0, std::memory_order_relaxed);
    traffic_bytes_in_[i].store(0, std::memory_order_relaxed);
    traffic_bytes_out_[i].store(0, std::memory_order_relaxed);
    traffic_transfers_in_[i].store(0, std::memory_order_relaxed);
    traffic_transfers_out_[i].store(0, std::memory_order_relaxed);
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
      stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    }
    buf.messages.erase(stale, buf.messages.end());
  }
  free_handler_ids_.push_back(id);
}

Status Fabric::SendAsync(MachineId src, MachineId dst, HandlerId id,
                         Slice payload) {
  if (dst < 0 || dst >= num_machines_) {
    return Status::InvalidArgument("bad destination machine");
  }
  stats_.messages.fetch_add(1, std::memory_order_relaxed);
  if (src >= 0 && src < num_machines_ &&
      !machine_up_[src].load(std::memory_order_acquire)) {
    // A crashed machine cannot originate traffic; callers still running on
    // its behalf (e.g. a vertex program mid-superstep) see the failure.
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("source machine is down");
  }
  if (!machine_up_[dst].load(std::memory_order_acquire)) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("destination machine is down");
  }
  if (src == dst) {
    stats_.local_messages.fetch_add(1, std::memory_order_relaxed);
  }
  int copies = 1;
  if (injector_ != nullptr) {
    switch (injector_->OnAsyncMessage(src, dst, id)) {
      case FaultInjector::AsyncAction::kDrop:
        // Silent loss: the sender believes the send succeeded — that is the
        // fault being modeled.
        stats_.dropped.fetch_add(1, std::memory_order_relaxed);
        stats_.injected_drops.fetch_add(1, std::memory_order_relaxed);
        MaybeTriggerCrashes(src, dst);
        return Status::OK();
      case FaultInjector::AsyncAction::kDuplicate:
        stats_.injected_duplicates.fetch_add(1, std::memory_order_relaxed);
        copies = 2;
        break;
      case FaultInjector::AsyncAction::kDeliver:
        break;
    }
  }
  if (src == dst) {
    // Local delivery never touches the wire.
    for (int c = 0; c < copies; ++c) Deliver(src, dst, id, payload);
    MaybeTriggerCrashes(src, dst);
    return Status::OK();
  }
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
  if (dst < 0 || dst >= num_machines_) {
    return Status::InvalidArgument("bad destination machine");
  }
  stats_.messages.fetch_add(message_count, std::memory_order_relaxed);
  if (src >= 0 && src < num_machines_ &&
      !machine_up_[src].load(std::memory_order_acquire)) {
    stats_.dropped.fetch_add(message_count, std::memory_order_relaxed);
    return Status::Unavailable("source machine is down");
  }
  if (!machine_up_[dst].load(std::memory_order_acquire)) {
    stats_.dropped.fetch_add(message_count, std::memory_order_relaxed);
    return Status::Unavailable("destination machine is down");
  }
  if (src == dst) {
    stats_.local_messages.fetch_add(message_count, std::memory_order_relaxed);
  }
  int copies = 1;
  if (injector_ != nullptr) {
    // The injector sees the packed payload as one message event: a drop
    // loses the whole batch (the unit that actually crosses the wire).
    switch (injector_->OnAsyncMessage(src, dst, id)) {
      case FaultInjector::AsyncAction::kDrop:
        stats_.dropped.fetch_add(message_count, std::memory_order_relaxed);
        stats_.injected_drops.fetch_add(1, std::memory_order_relaxed);
        MaybeTriggerCrashes(src, dst);
        return Status::OK();
      case FaultInjector::AsyncAction::kDuplicate:
        stats_.injected_duplicates.fetch_add(1, std::memory_order_relaxed);
        copies = 2;
        break;
      case FaultInjector::AsyncAction::kDeliver:
        break;
    }
  }
  if (src == dst) {
    for (int c = 0; c < copies; ++c) Deliver(src, dst, id, payload);
    MaybeTriggerCrashes(src, dst);
    return Status::OK();
  }
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
  stats_.sync_calls.fetch_add(1, std::memory_order_relaxed);
  if (src >= 0 && src < num_machines_ &&
      !machine_up_[src].load(std::memory_order_acquire)) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("source machine is down");
  }
  if (!machine_up_[dst].load(std::memory_order_acquire)) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("destination machine is down");
  }
  if (injector_ != nullptr) {
    // An injected failure happens "on the wire": the handler never runs,
    // exactly as if the request (or its response) was lost.
    Status injected = injector_->OnCall(src, dst, id);
    if (!injected.ok()) {
      stats_.injected_call_failures.fetch_add(1, std::memory_order_relaxed);
      MaybeTriggerCrashes(src, dst);
      return injected;
    }
    const double delay = injector_->CallDelayMicros(src, dst, id);
    if (delay > 0.0) {
      // A straggler call: the caller blocks for `delay` simulated micros
      // before the handler runs. Charge the wait to the caller's CPU meter
      // and to the request's deadline budget.
      stats_.injected_call_delays.fetch_add(1, std::memory_order_relaxed);
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
    stats_.local_messages.fetch_add(1, std::memory_order_relaxed);
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
    stats_.delayed_flushes.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::vector<PackedMessage> batch = std::move(buf.messages);
  std::size_t bytes = buf.bytes;
  buf.messages.clear();
  buf.bytes = 0;
  const bool alive = machine_up_[dst].load(std::memory_order_acquire);
  if (!alive) {
    stats_.dropped.fetch_add(batch.size(), std::memory_order_relaxed);
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
      stats_.dropped.fetch_add(1, std::memory_order_relaxed);
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
  stats_.transfers.fetch_add(transfer_count, std::memory_order_relaxed);
  stats_.bytes.fetch_add(bytes, std::memory_order_relaxed);
  traffic_bytes_out_[src].fetch_add(bytes, std::memory_order_relaxed);
  traffic_bytes_in_[dst].fetch_add(bytes, std::memory_order_relaxed);
  traffic_transfers_out_[src].fetch_add(transfer_count,
                                        std::memory_order_relaxed);
  traffic_transfers_in_[dst].fetch_add(transfer_count,
                                       std::memory_order_relaxed);
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
    if (fired) stats_.injected_crashes.fetch_add(1, std::memory_order_relaxed);
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
  cpu_micros_[machine].fetch_add(micros, std::memory_order_relaxed);
}

double Fabric::cpu_micros(MachineId machine) const {
  return cpu_micros_[machine].load(std::memory_order_relaxed);
}

double Fabric::MaxCpuMicros() const {
  double max = 0.0;
  for (int m = 0; m < num_machines_; ++m) {
    max = std::max(max, cpu_micros_[m].load(std::memory_order_relaxed));
  }
  return max;
}

NetworkStats Fabric::stats() const {
  // Lock-free snapshot; fields may be mutually inconsistent for an instant,
  // which is fine for meters read at phase boundaries.
  NetworkStats out;
  out.messages = stats_.messages.load(std::memory_order_relaxed);
  out.transfers = stats_.transfers.load(std::memory_order_relaxed);
  out.bytes = stats_.bytes.load(std::memory_order_relaxed);
  out.sync_calls = stats_.sync_calls.load(std::memory_order_relaxed);
  out.local_messages = stats_.local_messages.load(std::memory_order_relaxed);
  out.dropped = stats_.dropped.load(std::memory_order_relaxed);
  out.injected_drops = stats_.injected_drops.load(std::memory_order_relaxed);
  out.injected_duplicates =
      stats_.injected_duplicates.load(std::memory_order_relaxed);
  out.injected_call_failures =
      stats_.injected_call_failures.load(std::memory_order_relaxed);
  out.injected_crashes =
      stats_.injected_crashes.load(std::memory_order_relaxed);
  out.delayed_flushes =
      stats_.delayed_flushes.load(std::memory_order_relaxed);
  out.injected_call_delays =
      stats_.injected_call_delays.load(std::memory_order_relaxed);
  return out;
}

PerMachineTraffic Fabric::traffic() const {
  PerMachineTraffic out;
  const std::size_t n = static_cast<std::size_t>(num_machines_);
  out.bytes_in.resize(n);
  out.bytes_out.resize(n);
  out.transfers_in.resize(n);
  out.transfers_out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.bytes_in[i] = traffic_bytes_in_[i].load(std::memory_order_relaxed);
    out.bytes_out[i] = traffic_bytes_out_[i].load(std::memory_order_relaxed);
    out.transfers_in[i] =
        traffic_transfers_in_[i].load(std::memory_order_relaxed);
    out.transfers_out[i] =
        traffic_transfers_out_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Fabric::ResetMeters() {
  stats_.messages.store(0, std::memory_order_relaxed);
  stats_.transfers.store(0, std::memory_order_relaxed);
  stats_.bytes.store(0, std::memory_order_relaxed);
  stats_.sync_calls.store(0, std::memory_order_relaxed);
  stats_.local_messages.store(0, std::memory_order_relaxed);
  stats_.dropped.store(0, std::memory_order_relaxed);
  stats_.injected_drops.store(0, std::memory_order_relaxed);
  stats_.injected_duplicates.store(0, std::memory_order_relaxed);
  stats_.injected_call_failures.store(0, std::memory_order_relaxed);
  stats_.injected_crashes.store(0, std::memory_order_relaxed);
  stats_.delayed_flushes.store(0, std::memory_order_relaxed);
  stats_.injected_call_delays.store(0, std::memory_order_relaxed);
  for (int m = 0; m < num_machines_; ++m) {
    cpu_micros_[m].store(0.0, std::memory_order_relaxed);
    traffic_bytes_in_[m].store(0, std::memory_order_relaxed);
    traffic_bytes_out_[m].store(0, std::memory_order_relaxed);
    traffic_transfers_in_[m].store(0, std::memory_order_relaxed);
    traffic_transfers_out_[m].store(0, std::memory_order_relaxed);
  }
}

}  // namespace trinity::net
