// Fleet-scale sharded cluster simulation.
//
// The cluster's node index space is split into contiguous shards
// (des::partition_range); each shard owns a private des::Engine, a
// node-range-restricted ClusterSim, and a forked RNG stream, and simulates
// its slice's fault/recovery dynamics independently.  Shard outputs — raw
// syslog records, error notifications, drain/down/up transitions — are
// collected as per-shard ordered event logs and deterministically merged on
// (time, node, seq) into the single global stream the campaign replays into
// the scheduler and analysis layers.
//
// Determinism contract: the shard structure (count, boundaries, per-shard
// seeds) depends only on the cluster and the configured shard count — never
// on how many worker threads run the shards.  --threads 0 runs the same
// shards sequentially, so output is byte-identical at any thread count (see
// DESIGN.md "Sharded simulation determinism").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "cluster/fault_config.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "des/shard.h"
#include "obs/metrics.h"
#include "xid/event.h"

namespace gpures::cluster {

/// One entry of a shard's event log: everything a ClusterSim tells its
/// RawLineSink / SimListener, tagged with the global merge key.
struct SimEvent {
  enum class Kind : std::uint8_t {
    kRawXid,      ///< one raw syslog XID record (slot/code/detail valid)
    kError,       ///< coalesced ground-truth error (note valid)
    kDrainBegin,  ///< node stops accepting jobs
    kNodeDown,    ///< node reboots; running jobs die
    kNodeUp,      ///< node back in service
  };

  common::TimePoint time = 0;  ///< the event's own timestamp (raw records may
                               ///< be future-dated relative to emission)
  std::int32_t node = 0;
  std::uint64_t seq = 0;       ///< shard-local emission counter
  Kind kind = Kind::kRawXid;
  std::int32_t slot = 0;       ///< kRawXid
  xid::Code code{};            ///< kRawXid
  std::string detail;          ///< kRawXid
  ErrorNotification note;      ///< kError
};

/// The global merge order: (time, node, seq).  Node ranges are disjoint
/// across shards, so cross-shard (time, node) ties are impossible and `seq`
/// only orders events within one shard — the merged stream is a strict total
/// order, independent of which thread ran which shard.
struct SimEventBefore {
  bool operator()(const SimEvent& a, const SimEvent& b) const {
    if (a.time != b.time) return a.time < b.time;
    if (a.node != b.node) return a.node < b.node;
    return a.seq < b.seq;
  }
};

/// Per-shard sink: records every simulator callback as a SimEvent.  The seq
/// counter is monotone over the shard's lifetime, so per-day batches stay
/// internally ordered across epoch boundaries.
class ShardLog final : public RawLineSink, public SimListener {
 public:
  void on_xid_record(common::TimePoint t, std::int32_t node, std::int32_t slot,
                     xid::Code code, const std::string& detail) override;
  void on_error(const ErrorNotification& n) override;
  void on_drain_begin(std::int32_t node, common::TimePoint t) override;
  void on_node_down(std::int32_t node, common::TimePoint t) override;
  void on_node_up(std::int32_t node, common::TimePoint t) override;

  /// Sort the buffered events into merge order, in place.
  void sort();
  /// The buffered events, which the epoch's merge hands to its visitor.
  std::vector<SimEvent>& events() { return events_; }
  /// Empty the log for the next epoch.  The vector keeps its capacity, so
  /// the thread that runs this shard stops reallocating it every day.
  void clear() { events_.clear(); }

 private:
  std::vector<SimEvent> events_;
  std::uint64_t seq_ = 0;
};

/// Runs N node-range shards of the cluster simulation, each on a private
/// engine, and merges their event logs into one deterministic stream.
///
/// Usage (one day-epoch at a time — the campaign's loop):
///   begin_day();                // freeze the scheduler busy snapshot
///   simulate_to(day_end);       // run shards (parallel), sort their logs
///   drain_merged(replay);       // replay the merged events, in order
class ShardedClusterSim {
 public:
  /// Default shard sizing: ~one shard per 16 nodes, at most 256 shards
  /// (106 nodes -> 7 shards, 2000 nodes -> 125).
  static constexpr std::int32_t kNodesPerShard = 16;
  static constexpr std::int32_t kMaxShards = 256;

  struct Options {
    /// Shard count; 0 picks auto_shard_count(nodes, 16, 256).  This is a
    /// simulation parameter (it changes RNG stream assignment), NOT a
    /// performance knob — results are identical at any thread count for a
    /// fixed shard count.
    std::int32_t shards = 0;
    /// Worker pool for running shards concurrently; null runs them
    /// sequentially on the caller's thread.  Never affects results.
    common::ThreadPool* pool = nullptr;
  };

  /// `rng` is the campaign's "sim" stream; shard k simulates with
  /// rng.fork("shard", k), so per-shard streams are stable under any shard
  /// execution order.
  ShardedClusterSim(const Topology& topo, const FaultConfig& cfg,
                    common::Rng rng, Options opts);
  /// Default options: auto shard count, sequential execution.
  ShardedClusterSim(const Topology& topo, const FaultConfig& cfg,
                    common::Rng rng);
  ~ShardedClusterSim();

  /// Attach observability: the shared sim.* counters on every shard (their
  /// cells are thread-safe and order-independent) plus per-shard labeled
  /// des.* series (des.events_dispatched{shard="k"}, ...) on each shard
  /// engine.  Counts only; never changes results.
  void set_metrics(obs::MetricsRegistry* m);

  /// Fills out[flat GPU index] with each GPU's busy-until time (0 = idle).
  using BusySnapshotProvider =
      std::function<void(std::vector<common::TimePoint>&)>;

  /// Install the scheduler snapshot source and wire every shard's busy/drain
  /// queries to the day-epoch frozen snapshot.  Without a provider, shards
  /// see an idle cluster (matches ClusterSim without queries).
  void set_busy_snapshot_provider(BusySnapshotProvider p);

  /// Install fault arrivals on every shard engine.  Call once.
  void start();

  /// Refresh the frozen busy snapshot from the provider.  Call at each
  /// epoch boundary, before simulate_to.
  void begin_day();

  /// Run every shard to `until` and sort its log, concurrently when a pool
  /// is set.  Follow with drain_merged().
  void simulate_to(common::TimePoint until);

  /// Call `fn` on every event the last simulate_to() logged, in the merged
  /// (time, node, seq) order, then empty the shard logs.  Raw-record events
  /// may carry timestamps slightly past `until` (duplicate-line and NVLink
  /// offsets); they sort at the tail.  The merge streams: no epoch-sized
  /// copy of the events is made.  `fn` may move from the event.
  void drain_merged(const std::function<void(SimEvent&)>& fn);

  /// simulate_to(until), then the drained events as one vector.
  std::vector<SimEvent> advance_to(common::TimePoint until);

  std::int32_t shard_count() const {
    return static_cast<std::int32_t>(shards_.size());
  }
  const Topology& topology() const { return topo_; }
  const FaultConfig& config() const { return cfg_; }
  const NodeRange& shard_range(std::int32_t k) const;

  /// Merged ground truth: per-shard truths sorted and k-way merged — errors
  /// on (time, node, slot), downtime on (begin, node).  Computed lazily on
  /// first call; call only after the simulation has fully run.
  const xid::GroundTruth& ground_truth() const;

  /// Total raw records across shards (diagnostics).
  std::uint64_t raw_records() const;

 private:
  struct Shard;

  const Topology& topo_;
  FaultConfig cfg_;
  common::ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::vector<SimEvent>*> logs_;  ///< shard k's ShardLog events
  BusySnapshotProvider snapshot_provider_;
  /// Day-epoch frozen busy-until per flat GPU.  Written only by begin_day()
  /// (between epochs); read-only while shards run, so concurrent shard
  /// queries are race-free.
  std::vector<common::TimePoint> busy_until_;
  mutable xid::GroundTruth merged_truth_;
  mutable bool truth_merged_ = false;
};

}  // namespace gpures::cluster
