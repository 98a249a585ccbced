#include "cluster/sharded_sim.h"

#include <algorithm>
#include <stdexcept>

namespace gpures::cluster {

void ShardLog::on_xid_record(common::TimePoint t, std::int32_t node,
                             std::int32_t slot, xid::Code code,
                             const std::string& detail) {
  SimEvent e;
  e.time = t;
  e.node = node;
  e.seq = seq_++;
  e.kind = SimEvent::Kind::kRawXid;
  e.slot = slot;
  e.code = code;
  e.detail = detail;
  events_.push_back(std::move(e));
}

void ShardLog::on_error(const ErrorNotification& n) {
  SimEvent e;
  e.time = n.event.time;
  e.node = n.event.gpu.node;
  e.seq = seq_++;
  e.kind = SimEvent::Kind::kError;
  e.note = n;
  events_.push_back(std::move(e));
}

void ShardLog::on_drain_begin(std::int32_t node, common::TimePoint t) {
  SimEvent e;
  e.time = t;
  e.node = node;
  e.seq = seq_++;
  e.kind = SimEvent::Kind::kDrainBegin;
  events_.push_back(std::move(e));
}

void ShardLog::on_node_down(std::int32_t node, common::TimePoint t) {
  SimEvent e;
  e.time = t;
  e.node = node;
  e.seq = seq_++;
  e.kind = SimEvent::Kind::kNodeDown;
  events_.push_back(std::move(e));
}

void ShardLog::on_node_up(std::int32_t node, common::TimePoint t) {
  SimEvent e;
  e.time = t;
  e.node = node;
  e.seq = seq_++;
  e.kind = SimEvent::Kind::kNodeUp;
  events_.push_back(std::move(e));
}

void ShardLog::sort() {
  // Raw records can be future-dated relative to emission order, so the
  // buffer is not time-sorted as appended; sort into merge order here.
  // (time, node, seq) is a strict total order within one shard because seq
  // is unique, so std::sort is deterministic.
  std::sort(events_.begin(), events_.end(), SimEventBefore{});
}

struct ShardedClusterSim::Shard {
  des::Engine engine;
  ShardLog log;
  ClusterSim sim;

  Shard(const Topology& topo, const FaultConfig& cfg, common::Rng rng,
        NodeRange range)
      : engine(cfg.study_begin), sim(engine, topo, cfg, std::move(rng), range) {
    sim.set_raw_sink(&log);
    sim.set_listener(&log);
  }
};

ShardedClusterSim::ShardedClusterSim(const Topology& topo,
                                     const FaultConfig& cfg, common::Rng rng,
                                     Options opts)
    : topo_(topo), cfg_(cfg), pool_(opts.pool) {
  const std::int32_t shards =
      opts.shards > 0
          ? opts.shards
          : des::auto_shard_count(topo_.node_count(), kNodesPerShard,
                                  kMaxShards);
  const auto ranges = des::partition_range(topo_.node_count(), shards);
  shards_.reserve(ranges.size());
  logs_.reserve(ranges.size());
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    shards_.push_back(std::make_unique<Shard>(
        topo_, cfg_, rng.fork("shard", static_cast<std::uint64_t>(k)),
        ranges[k]));
    logs_.push_back(&shards_.back()->log.events());
  }
}

ShardedClusterSim::ShardedClusterSim(const Topology& topo,
                                     const FaultConfig& cfg, common::Rng rng)
    : ShardedClusterSim(topo, cfg, std::move(rng), Options{}) {}

ShardedClusterSim::~ShardedClusterSim() = default;

void ShardedClusterSim::set_metrics(obs::MetricsRegistry* m) {
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->sim.set_metrics(m);
    if (m == nullptr) {
      shards_[k]->engine.set_metrics(nullptr);
    } else {
      const obs::Label label{"shard", std::to_string(k)};
      shards_[k]->engine.set_metrics(m, std::span<const obs::Label>(&label, 1));
    }
  }
}

void ShardedClusterSim::set_busy_snapshot_provider(BusySnapshotProvider p) {
  snapshot_provider_ = std::move(p);
  if (!snapshot_provider_) {
    busy_until_.clear();
    return;
  }
  busy_until_.assign(static_cast<std::size_t>(topo_.total_gpus()), 0);
  for (auto& sp : shards_) {
    Shard* s = sp.get();
    // Both queries read the epoch-frozen snapshot against the *shard's* own
    // clock; busy_until_ is only mutated between epochs (begin_day), so
    // concurrent shard execution reads immutable data.
    s->sim.set_busy_query([this, s](xid::GpuId gpu) {
      return busy_until_[static_cast<std::size_t>(topo_.flat_index(gpu))] >
             s->engine.now();
    });
    s->sim.set_drain_query([this, s](std::int32_t node, common::TimePoint now,
                                     common::Duration cap) {
      common::Duration longest = 0;
      const auto base = static_cast<std::size_t>(topo_.flat_base(node));
      const auto count = static_cast<std::size_t>(topo_.gpus_on_node(node));
      for (std::size_t g = 0; g < count; ++g) {
        const auto end = busy_until_[base + g];
        if (end > now) longest = std::max(longest, end - now);
      }
      return std::clamp<common::Duration>(longest, 0, cap);
    });
  }
}

void ShardedClusterSim::start() {
  for (auto& sp : shards_) sp->sim.start();
}

void ShardedClusterSim::begin_day() {
  if (snapshot_provider_) snapshot_provider_(busy_until_);
}

void ShardedClusterSim::simulate_to(common::TimePoint until) {
  const auto run = [until](Shard& s) {
    s.engine.run_until(until);
    s.log.sort();
  };
  if (pool_ != nullptr && shards_.size() > 1) {
    // One index per shard; the pool's static chunking decides which worker
    // runs which shard — irrelevant to results, since each shard is fully
    // self-contained and the merge fixes the global order.
    pool_->parallel_for(shards_.size(),
                        [&](std::size_t k, std::size_t /*worker*/) {
                          run(*shards_[k]);
                        });
  } else {
    for (auto& sp : shards_) run(*sp);
  }
}

void ShardedClusterSim::drain_merged(
    const std::function<void(SimEvent&)>& fn) {
  des::for_each_merged(std::span<std::vector<SimEvent>* const>(logs_),
                       SimEventBefore{}, fn);
  for (auto& sp : shards_) sp->log.clear();
}

std::vector<SimEvent> ShardedClusterSim::advance_to(common::TimePoint until) {
  simulate_to(until);
  std::vector<SimEvent> out;
  drain_merged([&out](SimEvent& e) { out.push_back(std::move(e)); });
  return out;
}

const NodeRange& ShardedClusterSim::shard_range(std::int32_t k) const {
  return shards_.at(static_cast<std::size_t>(k))->sim.node_range();
}

const xid::GroundTruth& ShardedClusterSim::ground_truth() const {
  if (!truth_merged_) {
    const auto error_before = [](const xid::GpuErrorEvent& a,
                                 const xid::GpuErrorEvent& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.gpu.node != b.gpu.node) return a.gpu.node < b.gpu.node;
      return a.gpu.slot < b.gpu.slot;
    };
    const auto down_before = [](const xid::DowntimeInterval& a,
                                const xid::DowntimeInterval& b) {
      if (a.begin != b.begin) return a.begin < b.begin;
      return a.node < b.node;
    };
    std::vector<std::vector<xid::GpuErrorEvent>> errs;
    std::vector<std::vector<xid::DowntimeInterval>> downs;
    errs.reserve(shards_.size());
    downs.reserve(shards_.size());
    for (const auto& sp : shards_) {
      // Stable sort keeps each shard's emission order for full key ties
      // (same instant, same GPU), so the merged truth is deterministic.
      auto e = sp->sim.ground_truth().errors;
      std::stable_sort(e.begin(), e.end(), error_before);
      errs.push_back(std::move(e));
      auto d = sp->sim.ground_truth().downtime;
      std::stable_sort(d.begin(), d.end(), down_before);
      downs.push_back(std::move(d));
    }
    merged_truth_.errors = des::merge_sorted_shards(std::move(errs),
                                                    error_before);
    merged_truth_.downtime = des::merge_sorted_shards(std::move(downs),
                                                      down_before);
    truth_merged_ = true;
  }
  return merged_truth_;
}

std::uint64_t ShardedClusterSim::raw_records() const {
  std::uint64_t total = 0;
  for (const auto& sp : shards_) total += sp->sim.raw_records();
  return total;
}

}  // namespace gpures::cluster
