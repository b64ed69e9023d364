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
#include "common/counters.h"
#include "common/histogram.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/types.h"
#include "net/fault_injector.h"
#include "net/network_stats.h"

namespace trinity::net {

/// Relaxed-atomic cost meters: the NetworkStats totals plus, per machine,
/// the CPU microseconds spent and the bytes and transfers crossing its NIC
/// (everything CostModel prices). The fabric keeps one cumulative instance;
/// each run keeps its own (RunMeters).
class Meters {
 public:
  /// One NetworkStats total, e.g. &NetworkStats::dropped.
  using Counter = Counters<NetworkStats>::Field;

  explicit Meters(int num_machines) : machines_(num_machines) {}

  int num_machines() const { return static_cast<int>(machines_.size()); }

  void Add(Counter counter, std::uint64_t n) { totals_.Add(counter, n); }
  /// `transfers` physical transfers totalling `bytes` on the src→dst wire.
  void AddTransfer(MachineId src, MachineId dst, std::uint64_t bytes,
                   std::uint64_t transfers);
  void AddCpuMicros(MachineId machine, double micros);
  void Reset();

  /// One machine's meters. Atomics value-initialize to zero.
  struct Machine {
    std::atomic<double> cpu_micros;
    std::atomic<std::uint64_t> bytes_in, bytes_out, transfers_in, transfers_out;
  };

  /// Reads are relaxed: fields may be mutually inconsistent for an instant,
  /// which is fine for meters read at phase boundaries.
  NetworkStats Snapshot() const { return totals_.Snapshot(); }
  const Machine& machine(MachineId m) const { return machines_[m]; }
  /// Max CPU meter across machines — the modeled critical path.
  double MaxCpuMicros() const;

 private:
  Counters<NetworkStats> totals_;
  std::vector<Machine> machines_;
};

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

  /// Cumulative meters: every charge since construction or ResetMeters().
  /// A run prices its own RunMeters instead.
  const Meters& meters() const { return meters_; }
  NetworkStats stats() const { return meters_.Snapshot(); }
  /// Clears the cumulative meters (not the handlers or any run's meters).
  void ResetMeters() { meters_.Reset(); }

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

  /// What SendAsync and SendPacked share: charge the messages, refuse a
  /// down endpoint, apply the injector, deliver locally. Sets *copies to the
  /// copies left for the wire; 0 when the send ended with the status.
  Status StartSend(MachineId src, MachineId dst, HandlerId id, Slice payload,
                   std::uint64_t message_count, int* copies);

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
  void Count(Meters::Counter counter, std::uint64_t n);
  /// Applies one charge to the cumulative meters and to the calling
  /// thread's run meter, when that meters this fabric (a run meter is sized
  /// for the fabric it runs on).
  template <typename Fn>
  void Charge(Fn&& charge) {
    charge(meters_);
    Meters* run = current_run_meter;
    if (run != nullptr && run->num_machines() == num_machines_) charge(*run);
  }
  /// Charges one completed message against the injector's crash schedules
  /// and executes any crash that fires. Must be called without mu_ held.
  void MaybeTriggerCrashes(MachineId src, MachineId dst);

  const int num_machines_;
  const Params params_;
  FaultInjector* injector_ = nullptr;
  std::function<void(MachineId)> crash_listener_;

  /// mu_ guards the structural state: handler maps, pack buffers, and the
  /// injector/listener hooks. Liveness flags and all meters are atomics.
  mutable std::mutex mu_;
  std::vector<std::unordered_map<HandlerId, AsyncHandler>> async_handlers_;
  std::vector<std::unordered_map<HandlerId, SyncHandler>> sync_handlers_;
  std::vector<PairBuffer> pair_buffers_;
  std::vector<HandlerId> free_handler_ids_;
  HandlerId next_handler_id_ = kFirstLeasedHandler;
  std::unique_ptr<std::atomic<bool>[]> machine_up_;
  Meters meters_;
};

/// A run's own Meters. For its lifetime it is the calling thread's run
/// meter: ThreadPool carries it into the tasks the run submits, and every
/// charge the fabric makes on those threads lands on both the fabric's
/// cumulative meters and this ledger. Concurrent runs thus price only their
/// own work, and nobody resets shared counters. Runs nest; a charge goes to
/// the innermost run only.
class RunMeters : public Meters {
 public:
  explicit RunMeters(const Fabric& fabric)
      : Meters(fabric.num_machines()), enclosing_(current_run_meter) {
    current_run_meter = this;
  }
  ~RunMeters() { current_run_meter = enclosing_; }

 private:
  Meters* const enclosing_;
};

}  // namespace trinity::net

#endif  // TRINITY_NET_FABRIC_H_
