// Campaign driver: one-call "simulate Delta 2022-2025 and emit its raw
// artifacts".
//
// The campaign owns the sharded cluster simulator and a consumer DES engine
// hosting the Slurm workload/scheduler/failure-propagation stack.  Each day:
// the node-range shards simulate the day independently (in parallel when
// pipeline.num_threads > 0), their merged event stream replays into the
// consumer engine, and the day's raw lines flow through a day-bucketed
// stream to the attached sinks (the log is never held in memory whole); at
// the end every job is formatted as its textual sacct row.  A day's noise
// lines are rendered into their own buffer — a day ahead on one helper
// thread when pipeline.num_threads > 0 — and spliced after the day's
// simulated lines, so the bytes never depend on the thread count.  The campaign
// only generates: a DatasetWriter sink writes the artifacts to disk, and an
// attached AnalysisPipeline analyzes them in memory.  Neither changes what
// is generated.  Ground truth is retained solely for validation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "cluster/fault_config.h"
#include "cluster/sharded_sim.h"
#include "cluster/topology.h"
#include "des/event_queue.h"
#include "logsys/log_store.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "slurm/failure_model.h"
#include "slurm/scheduler.h"
#include "slurm/workload_model.h"

namespace gpures::analysis {

struct CampaignConfig {
  cluster::ClusterSpec spec = cluster::ClusterSpec::delta_a100();
  cluster::FaultConfig faults = cluster::FaultConfig::delta_a100();
  slurm::WorkloadConfig workload = slurm::WorkloadConfig::delta_a100();
  slurm::FailureModelConfig failure;
  slurm::SchedulerConfig scheduler;
  /// The analysis configuration for an attached pipeline; the campaign
  /// resolves its periods from `faults` and its registry from `metrics`.
  /// num_threads also sizes the simulation's shard pool and, when > 0,
  /// adds the one thread that renders noise a day ahead.
  PipelineConfig pipeline;
  std::uint64_t seed = 42;
  bool with_jobs = true;
  /// Cluster-wide non-XID noise lines per day (exercises Stage-I rejection).
  double noise_lines_per_day = 200.0;
  /// Multiplies the workload's expected job count (quick runs use << 1).
  double workload_scale = 1.0;
  /// Simulation shard count; 0 picks one shard per ~16 nodes (capped at
  /// 256).  Changing it changes per-shard RNG streams (a different but
  /// equally valid sample path); for a fixed value, results are
  /// byte-identical at any pipeline.num_threads.
  std::int32_t sim_shards = 0;
  /// Observability registry shared by every layer of the campaign (DES
  /// engine, cluster sim, fault injector, scheduler) and, through
  /// `pipeline.metrics`, an attached pipeline.  Null runs with the same code
  /// paths but no metric emission from the sim layers.  Metrics never feed
  /// back into simulation or analysis results.
  obs::MetricsRegistry* metrics = nullptr;

  /// Full paper-scale campaign (1170 days, 106 nodes, ~1.4M jobs).
  static CampaignConfig delta_a100();
  /// Fast campaign for tests/examples: 90-day window, ~20k jobs.
  static CampaignConfig quick();
};

class DeltaCampaign {
 public:
  explicit DeltaCampaign(CampaignConfig cfg);
  ~DeltaCampaign();

  /// Optional progress hook: (days simulated, total days).
  void set_progress(std::function<void(int, int)> cb) { progress_ = std::move(cb); }

  /// Route day-level progress to an obs reporter (preferred over the raw
  /// callback; throttling and terminal handling live in the reporter).
  /// Must outlive run().
  void set_progress_reporter(obs::ProgressReporter* reporter);

  /// Optional: tee every raw artifact (day logs, accounting dump) to a
  /// dataset directory while the campaign runs.  Must outlive run().
  void set_dataset_writer(DatasetWriter* writer) { dataset_ = writer; }

  /// Optional: feed every day and accounting row to `pipe` as they are
  /// generated, and finish it at the end of run().  Build it as
  /// `AnalysisPipeline pipe(c.topology(), c.config().pipeline)`.  Must
  /// outlive run().
  void set_analysis(AnalysisPipeline* pipe) { analysis_ = pipe; }

  /// Run the full campaign; idempotent (second call is a no-op).
  void run();

  // ---- results ----
  const xid::GroundTruth& ground_truth() const { return sim_->ground_truth(); }
  const std::vector<slurm::JobRecord>& job_records() const;
  const cluster::Topology& topology() const { return topo_; }
  const CampaignConfig& config() const { return cfg_; }
  const StudyPeriods& periods() const { return periods_; }
  std::uint64_t raw_log_lines() const { return raw_lines_; }
  std::uint64_t jobs_killed_by_errors() const;
  /// Effective simulation shard count (resolves sim_shards = 0).
  std::int32_t sim_shards() const { return sim_->shard_count(); }

 private:
  CampaignConfig cfg_;
  StudyPeriods periods_;
  cluster::Topology topo_;
  des::Engine engine_;  ///< consumer engine: scheduler/workload/failure clock
  std::unique_ptr<common::ThreadPool> pool_;  ///< shard pool; null if serial
  std::unique_ptr<cluster::ShardedClusterSim> sim_;
  std::unique_ptr<slurm::Scheduler> scheduler_;
  std::unique_ptr<slurm::WorkloadModel> workload_;
  std::unique_ptr<slurm::FailurePropagator> failure_;
  std::unique_ptr<logsys::DayLogStream> log_stream_;
  common::Rng noise_rng_;
  DatasetWriter* dataset_ = nullptr;
  AnalysisPipeline* analysis_ = nullptr;
  std::function<void(int, int)> progress_;
  std::uint64_t raw_lines_ = 0;
  bool ran_ = false;

  void schedule_next_arrival(common::TimePoint from);
  /// Append `day_start`'s non-XID noise lines to `out`.  Reads only
  /// noise_rng_, the day and the topology, so it may run on a helper thread
  /// a day ahead of the simulation, provided days are rendered in order.
  void render_noise_day(common::TimePoint day_start, logsys::DayBuffer& out);
  /// Replay one merged shard event into the consumer-side stack: render raw
  /// lines, forward error/lifecycle notifications to the job layer.
  void apply_event(const cluster::SimEvent& e);
};

}  // namespace gpures::analysis
