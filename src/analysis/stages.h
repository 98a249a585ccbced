// What a run of the paper's Fig. 1 pipeline produces, and Stage III over it.
// AnalysisPipeline (analysis/pipeline.h) runs Stages I-II and owns the rows
// below; Stage3 reads them once the pipeline has finished.  The serve daemon
// (serve::ServeSession) drives one pipeline and checkpoints its rows, so
// every consumer gets the same rows, pipe.* counters and reports.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/availability.h"
#include "analysis/coalesce.h"
#include "analysis/error_stats.h"
#include "analysis/extraction.h"
#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace gpures::analysis {

/// Snapshot of the nine Stage-I/II counters.
struct PipeCounts {
  std::uint64_t log_lines = 0;
  std::uint64_t xid_records = 0;
  std::uint64_t lifecycle_records = 0;
  std::uint64_t rejected_lines = 0;     ///< noise / non-matching
  std::uint64_t unknown_hosts = 0;      ///< matched but unresolvable
  std::uint64_t accounting_lines = 0;
  std::uint64_t accounting_errors = 0;
  /// Observations violating the coalescer's per-(GPU, code) nondecreasing-
  /// time contract (valid once the run is finished; see
  /// Coalescer::out_of_order()).
  std::uint64_t out_of_order_observations = 0;
  std::uint64_t errors_coalesced = 0;
};

/// Row counts of a run's emitted rows.
struct EmittedCounts {
  std::uint64_t errors = 0;
  std::uint64_t lifecycle = 0;
  std::uint64_t jobs = 0;
  std::uint64_t spill = 0;  ///< JobTable::spill entries

  friend bool operator==(const EmittedCounts&, const EmittedCounts&) = default;
};

/// The rows a run emits, in feed order until the pipeline's finish() sorts
/// them (errors by (time, GPU, code), lifecycle records stably by time).
/// Until then they only grow at the end, which is what lets the serve
/// daemon checkpoint them as append-only segments.
struct EmittedRows {
  std::vector<CoalescedError> errors;
  std::vector<LifecycleRecord> lifecycle;
  JobTable jobs;

  EmittedCounts counts() const {
    return {errors.size(), lifecycle.size(), jobs.jobs.size(),
            jobs.spill.size()};
  }
};

struct PipelineConfig;  // analysis/pipeline.h

/// Every Stage-III result of a run, computed once by Stage3::results() and
/// handed to every emitter.
struct Stage3Results {
  ErrorStats error_stats;          ///< Table I
  JobImpact job_impact;            ///< Table II, operational period
  JobStats job_stats;              ///< Table III, full characterization window
  AvailabilityStats availability;  ///< Fig. 2, operational period
  double mttf_h = 0.0;             ///< mttf_estimate_h(error_stats)
};

/// Conservative MTTF estimate: the all-error per-node MTBE in op (the paper
/// assumes every GPU error interrupts the node).
inline double mttf_estimate_h(const ErrorStats& stats) {
  return stats.total.op.mtbe_per_node_h;
}

/// Stage III over a run's rows: error statistics (Table I), job impact
/// (Table II), job population (Table III) and availability (Fig. 2), with
/// the analysis knobs of the pipeline's PipelineConfig.  Each call opens its
/// stage3.* span; the exposure join also feeds the pipe.stage3.* metrics
/// (the `pipe.stage3.shard_jobs` and `pipe.stage3.shard_exposed` families,
/// one `{shard="N"}` child per worker slot).  The rows are read at call
/// time, so results reflect the run once its pipeline has finished and
/// sorted them.
class Stage3 {
 public:
  Stage3(const cluster::Topology& topo, const PipelineConfig& cfg,
         const EmittedRows& rows, obs::MetricsRegistry& reg,
         common::ThreadPool* pool);

  /// All four results, each computed once: what a run's emitters share.
  Stage3Results results() const;
  ErrorStats error_stats() const;
  JobStats job_stats() const;              ///< full characterization window
  JobImpact job_impact() const;            ///< operational period
  AvailabilityStats availability() const;  ///< operational period

  /// The job-impact settings of job_impact(), for renders that rerun the
  /// attribution (mitigation what-ifs).
  JobImpactConfig impact_config() const;

  const EmittedRows& rows() const { return rows_; }
  const cluster::Topology& topo() const { return topo_; }
  const PipelineConfig& config() const { return cfg_; }
  /// Worker pool for sharded renders; null in serial mode.
  common::ThreadPool* pool() const { return pool_; }

 private:
  struct ShardMetrics {
    obs::Counter* jobs = nullptr;     ///< jobs scanned by this shard
    obs::Counter* exposed = nullptr;  ///< of those, jobs with >= 1 error
  };

  const cluster::Topology& topo_;
  const PipelineConfig& cfg_;
  const EmittedRows& rows_;
  common::ThreadPool* pool_;
  obs::Counter* exposures_ = nullptr;     ///< exposed jobs, all joins
  obs::Histogram* join_us_ = nullptr;     ///< exposure-join latency
  std::vector<ShardMetrics> shards_;
};

}  // namespace gpures::analysis
