#ifndef TRINITY_NET_NETWORK_STATS_H_
#define TRINITY_NET_NETWORK_STATS_H_

#include <cstdint>

namespace trinity::net {

/// Aggregate traffic counters for the simulated interconnect.
///
/// `messages` counts logical one-sided messages; `transfers` counts physical
/// wire transfers after the batcher packed small messages together (paper
/// §4.2: "the system ... automatically pack[s] small messages between two
/// machines into a single transfer"). The gap between the two is exactly the
/// packing win the ablation benchmark measures.
struct NetworkStats {
  std::uint64_t messages = 0;      ///< Logical messages sent.
  std::uint64_t transfers = 0;     ///< Physical transfers on the wire.
  std::uint64_t bytes = 0;         ///< Payload + framing bytes moved.
  std::uint64_t sync_calls = 0;    ///< Request-response round trips.
  std::uint64_t local_messages = 0;  ///< Same-machine deliveries (free).
  std::uint64_t dropped = 0;       ///< Messages to dead machines.

  // Faults manufactured by an attached FaultInjector (all deterministic
  // given the injector's seed). `dropped` above also counts injected drops,
  // so the meters stay comparable with and without an injector.
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_call_failures = 0;
  std::uint64_t injected_crashes = 0;
  std::uint64_t delayed_flushes = 0;
  std::uint64_t injected_call_delays = 0;  ///< Sync calls slowed in flight.
};

/// Failover/recovery observability for the replicated memory cloud. All
/// times are *simulated* microseconds (the fabric's CPU meter), so they are
/// deterministic for a given fault-injector seed. Cumulative since the cloud
/// was created; read through MemoryCloud::recovery_stats().
struct RecoveryStats {
  std::uint64_t promotions = 0;  ///< Replica trunks promoted to primary.
  /// Simulated µs from failure detection to the addressing-table epoch bump
  /// that completes the most recent promotion (metadata flip only).
  std::uint64_t last_promote_micros = 0;
  /// Simulated µs from failure detection until the replication factor was
  /// fully restored by re-replication (includes last_promote_micros).
  std::uint64_t last_full_replication_micros = 0;
  std::uint64_t bytes_rereplicated = 0;  ///< Trunk-image bytes re-shipped.
  std::uint64_t trunks_rereplicated = 0;
  std::uint64_t degraded_reads = 0;  ///< Reads served by a replica trunk.
  /// Writes rejected because the sender's fencing epoch was stale — the
  /// split-brain counter; a stale primary's ack path shows up here.
  std::uint64_t fenced_writes = 0;
  /// Trunks reloaded from TFS because *every* in-memory replica was lost.
  std::uint64_t tfs_fallback_reloads = 0;
};

}  // namespace trinity::net

#endif  // TRINITY_NET_NETWORK_STATS_H_
