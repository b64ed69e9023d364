#ifndef TRINITY_NET_FABRIC_H_
#define TRINITY_NET_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/call_context.h"
#include "common/histogram.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "net/fault_injector.h"
#include "net/network_stats.h"

namespace trinity::net {

/// The simulated cluster interconnect: Trinity's message passing framework
/// ("an efficient, one-sided, machine-to-machine message passing
/// infrastructure", §2).
///
/// All machines live in one process; a "send" is a function call into the
/// destination machine's registered handler. What makes the simulation
/// faithful is the accounting: every logical message, every physical transfer
/// after packing, every byte and every CPU microsecond spent inside a
/// machine's handlers is metered per machine, and the CostModel converts the
/// meters into the time an m-machine cluster would have taken. The *relative*
/// results (scaling curves, packing wins, baseline gaps) carry over even
/// though the process runs on one box.
///
/// Two delivery styles mirror the paper:
///  * SendAsync — one-sided fire-and-forget. Small messages to the same
///    destination are queued per (src,dst) pair and packed into a single
///    transfer when the buffer reaches `pack_threshold_bytes` or on Flush.
///  * Call — one-sided request-response (synchronous protocols in TSL).
class Fabric {
 public:
  struct Params {
    /// Pack buffer per (src,dst) pair; a flush emits one physical transfer.
    std::size_t pack_threshold_bytes = 64 * 1024;
    /// Disable packing entirely (ablation baseline: one transfer per msg).
    bool pack_messages = true;
    /// Per-message framing overhead counted on the wire.
    std::size_t frame_overhead_bytes = 16;
  };

  /// Fire-and-forget handler: (source machine, payload).
  using AsyncHandler = std::function<void(MachineId, Slice)>;
  /// Request-response handler: fills *response.
  using SyncHandler =
      std::function<Status(MachineId, Slice, std::string* response)>;

  /// Ids from here up are leased per instance (HandlerLease); the fixed
  /// protocol ids of the cloud and TSL stay below it.
  static constexpr HandlerId kFirstLeasedHandler = 1u << 16;

  /// A handler id owned by one engine, exchange or run. The owner registers
  /// its handlers under id() on whichever machines it needs; the destructor
  /// unregisters the id on every machine, discards async messages still
  /// buffered for it and returns it for reuse. A late payload sent to a
  /// released id therefore finds no handler instead of its dead owner.
  class HandlerLease {
   public:
    explicit HandlerLease(Fabric& fabric)
        : fabric_(fabric), id_(fabric.AcquireHandlerId()) {}
    ~HandlerLease() { fabric_.ReleaseHandlerId(id_); }
    HandlerLease(const HandlerLease&) = delete;
    HandlerLease& operator=(const HandlerLease&) = delete;

    HandlerId id() const { return id_; }

   private:
    Fabric& fabric_;
    const HandlerId id_;
  };

  explicit Fabric(int num_machines);
  Fabric(int num_machines, Params params);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int num_machines() const { return num_machines_; }

  /// Registers the handler for (machine, handler_id). Re-registration
  /// replaces the previous handler (used when a machine restarts).
  void RegisterAsyncHandler(MachineId machine, HandlerId id, AsyncHandler fn);
  void RegisterSyncHandler(MachineId machine, HandlerId id, SyncHandler fn);

  /// One-sided asynchronous message. May be buffered; delivery is guaranteed
  /// by the time Flush(src) / FlushAll() returns. Messages to dead machines
  /// are dropped and counted.
  Status SendAsync(MachineId src, MachineId dst, HandlerId id, Slice payload);

  /// One-sided delivery of a payload that already packs `message_count`
  /// logical messages (the compute engines' per-(src,dst) outboxes, §4.2).
  /// Unlike SendAsync the payload is never buffered: the caller has already
  /// done the packing, so the fabric charges `message_count` logical messages
  /// plus ceil(payload / pack_threshold_bytes) physical transfers (one per
  /// message when packing is ablated away) and delivers immediately. The
  /// attached injector sees one message event per packed payload.
  Status SendPacked(MachineId src, MachineId dst, HandlerId id, Slice payload,
                    std::uint64_t message_count);

  /// One-sided synchronous request-response. Returns Unavailable when the
  /// destination machine is down — callers use this to detect failures
  /// (paper §6.2: "machine A ... can detect the failure of machine B").
  ///
  /// `ctx`, when non-null, carries the request's deadline: a cancelled or
  /// expired context short-circuits before touching the wire, and injected
  /// straggler delays (FaultInjector call_delay) are charged against the
  /// remaining budget — a delay the budget cannot afford abandons the call
  /// with DeadlineExceeded instead of waiting out the straggler.
  Status Call(MachineId src, MachineId dst, HandlerId id, Slice payload,
              std::string* response, CallContext* ctx = nullptr);

  /// Delivers every buffered async message from `src` (all destinations).
  void Flush(MachineId src);
  /// Delivers every buffered async message in the fabric. BSP engines call
  /// this at the superstep barrier.
  void FlushAll();

  /// Simulated machine failure / restart.
  void SetMachineDown(MachineId machine);
  void SetMachineUp(MachineId machine);
  bool IsMachineUp(MachineId machine) const;

  /// Attaches a fault-injection policy (borrowed; may be null to detach).
  /// Every subsequent message event consults it: async messages can be
  /// dropped or duplicated, sync calls can fail without reaching the
  /// destination, pack-buffer flushes can be held back until FlushAll, and
  /// scripted crashes take machines down mid-protocol. All injector
  /// decisions derive from its seed, so runs are replayable.
  void SetFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  /// Called (outside the fabric lock) whenever an injected crash schedule
  /// fires, after the machine has been marked down. The memory cloud hooks
  /// this to drop the crashed machine's storage, mirroring FailMachine.
  void SetCrashListener(std::function<void(MachineId)> listener);

  /// Adds measured CPU time to a machine's meter. Handler execution is
  /// metered automatically; compute engines additionally meter their local
  /// per-partition work through this.
  void AddCpuMicros(MachineId machine, double micros);
  double cpu_micros(MachineId machine) const;
  /// Max CPU meter across machines — the modeled critical path.
  double MaxCpuMicros() const;

  NetworkStats stats() const;
  PerMachineTraffic traffic() const;

  /// Clears the traffic + CPU meters (not the handlers). Engines call this
  /// at phase boundaries so the cost model sees one phase at a time.
  void ResetMeters();

  /// RAII CPU meter: measures the enclosed scope and charges it to machine.
  class MeterScope {
   public:
    MeterScope(Fabric& fabric, MachineId machine)
        : fabric_(fabric), machine_(machine) {}
    ~MeterScope() { fabric_.AddCpuMicros(machine_, watch_.ElapsedMicros()); }
    MeterScope(const MeterScope&) = delete;
    MeterScope& operator=(const MeterScope&) = delete;

   private:
    Fabric& fabric_;
    MachineId machine_;
    Stopwatch watch_;
  };

 private:
  struct PackedMessage {
    HandlerId handler;
    std::string payload;
  };

  struct PairBuffer {
    std::vector<PackedMessage> messages;
    std::size_t bytes = 0;
  };

  HandlerId AcquireHandlerId();
  void ReleaseHandlerId(HandlerId id);

  int PairIndex(MachineId src, MachineId dst) const {
    return src * num_machines_ + dst;
  }

  /// Delivers one pair buffer as a single physical transfer. When `force` is
  /// false the attached injector may hold the buffer back (delayed flush);
  /// FlushAll forces delivery.
  void FlushPairLocked(MachineId src, MachineId dst, bool force);
  void Deliver(MachineId src, MachineId dst, HandlerId id, Slice payload);
  /// Charges `transfer_count` physical transfers totalling `bytes` on the
  /// src→dst wire.
  void AccountTransfer(MachineId src, MachineId dst, std::size_t bytes,
                       std::size_t transfer_count);
  /// Charges one completed message against the injector's crash schedules
  /// and executes any crash that fires. Must be called without mu_ held.
  void MaybeTriggerCrashes(MachineId src, MachineId dst);

  /// Internal atomic mirror of NetworkStats: every hot-path send bumps these
  /// with relaxed ops instead of taking mu_, so instrumentation no longer
  /// serializes concurrent readers. stats() snapshots them into the plain
  /// struct callers already consume.
  struct AtomicNetworkStats {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> transfers{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> sync_calls{0};
    std::atomic<std::uint64_t> local_messages{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> injected_drops{0};
    std::atomic<std::uint64_t> injected_duplicates{0};
    std::atomic<std::uint64_t> injected_call_failures{0};
    std::atomic<std::uint64_t> injected_crashes{0};
    std::atomic<std::uint64_t> delayed_flushes{0};
    std::atomic<std::uint64_t> injected_call_delays{0};
  };

  const int num_machines_;
  const Params params_;
  FaultInjector* injector_ = nullptr;
  std::function<void(MachineId)> crash_listener_;

  /// mu_ still guards the structural state: handler maps, pack buffers, and
  /// the injector/listener hooks. Liveness flags and all meters are atomics.
  mutable std::mutex mu_;
  std::vector<std::unordered_map<HandlerId, AsyncHandler>> async_handlers_;
  std::vector<std::unordered_map<HandlerId, SyncHandler>> sync_handlers_;
  std::vector<PairBuffer> pair_buffers_;
  std::vector<HandlerId> free_handler_ids_;
  HandlerId next_handler_id_ = kFirstLeasedHandler;
  std::unique_ptr<std::atomic<bool>[]> machine_up_;
  std::unique_ptr<std::atomic<double>[]> cpu_micros_;
  AtomicNetworkStats stats_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> traffic_bytes_in_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> traffic_bytes_out_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> traffic_transfers_in_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> traffic_transfers_out_;
};

}  // namespace trinity::net

#endif  // TRINITY_NET_FABRIC_H_
