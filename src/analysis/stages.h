// The stages of paper Fig. 1 that both ingestion engines run: the in-memory
// AnalysisPipeline (fed by the campaign, the examples and the benches) and
// the file-following serve::ServeSession (behind gpures-analyze and
// gpures-serve).  Each piece is written once here — the Stage-I line loop,
// the nine pipe.* Stage-I/II counters, accounting-row handling, the final
// sort, and Stage III over the finished rows — so the same bytes in give the
// same rows, metrics and reports out of either engine.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "analysis/availability.h"
#include "analysis/coalesce.h"
#include "analysis/error_stats.h"
#include "analysis/extraction.h"
#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "analysis/periods.h"
#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "logsys/day_buffer.h"
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

/// Handles to the nine counters, `pipe.log_lines` .. `pipe.errors_coalesced`.
struct PipeMetrics {
  obs::Counter* log_lines = nullptr;
  obs::Counter* xid_records = nullptr;
  obs::Counter* lifecycle_records = nullptr;
  obs::Counter* rejected_lines = nullptr;
  obs::Counter* unknown_hosts = nullptr;
  obs::Counter* accounting_lines = nullptr;
  obs::Counter* accounting_errors = nullptr;
  obs::Counter* out_of_order = nullptr;
  obs::Counter* errors_coalesced = nullptr;

  /// Register (or look up) the nine counters on `reg`.
  static PipeMetrics on(obs::MetricsRegistry& reg);
  PipeCounts counts() const;
};

/// Stage-I output of a run of lines: records in line order.
struct Stage1Batch {
  std::vector<XidObservation> obs;
  std::vector<LifecycleRecord> lifecycle;
};

/// Stage I over lines [lo, hi) of `day`: parse each line, resolve its host
/// and PCI id to a GPU, and append an observation or lifecycle record to
/// `out`.  Lines that do not parse count as rejected, unresolvable ones as
/// unknown hosts.  Tallies reach the registry once per call, so the hot loop
/// touches no atomics and any split of a day into calls sums to the same
/// counts.
void parse_lines(const LineParser& parser, const cluster::Topology& topo,
                 common::TimePoint day_start, const logsys::DayBuffer& day,
                 std::size_t lo, std::size_t hi, const PipeMetrics& m,
                 Stage1Batch& out);

/// What one accounting-dump line turned out to be.
enum class AccountingLine { kBlank, kHeader, kJob, kMalformed };

/// Parse one accounting line and add its job to `jobs`.  Blank lines are
/// skipped uncounted; the header and every job row count as accounting
/// lines; malformed rows also count as accounting errors (the caller's
/// ingest policy decides what that means).
AccountingLine add_accounting_line(std::string_view line,
                                   const cluster::Topology& topo,
                                   JobTable& jobs, const PipeMetrics& m);

/// The final order of a run's rows.  Errors sort by (time, GPU, code) — a
/// total order, since two distinct errors never tie — so the sequence is
/// the same however the rows were produced.  Lifecycle records sort stably
/// by time: same-second ties keep ingestion order.
void sort_rows(std::vector<CoalescedError>& errors,
               std::vector<LifecycleRecord>& lifecycle);

/// The rows a run produced, borrowed from the engine that owns them.
struct RunRows {
  const std::vector<CoalescedError>& errors;
  const std::vector<LifecycleRecord>& lifecycle;
  const JobTable& jobs;
};

/// The analysis knobs Stage III reads.
struct Stage3Config {
  StudyPeriods periods = StudyPeriods::delta();
  /// Outlier handling for the aggregate MTBE (see ErrorStatsConfig).
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  /// Job-failure attribution window (paper: 20 s).
  common::Duration attribution_window = 20;
  Attribution attribution = Attribution::kGpuLevel;
};

/// Stage III over a run's rows: error statistics (Table I), job impact
/// (Table II), job population (Table III) and availability (Fig. 2).  Each
/// call opens its stage3.* span; the exposure join also feeds the
/// pipe.stage3.* metrics (one `pipe.stage3.shard.N.*` pair per worker slot).
/// The rows are read at call time, so results reflect the run once its
/// engine has finished and sorted them.
class Stage3 {
 public:
  Stage3(const cluster::Topology& topo, Stage3Config cfg, RunRows rows,
         obs::MetricsRegistry& reg, common::ThreadPool* pool);

  ErrorStats error_stats() const;
  JobStats job_stats() const;                 ///< full characterization window
  JobStats job_stats(const Period& w) const;  ///< custom window
  JobImpact job_impact() const;               ///< operational period
  AvailabilityStats availability() const;     ///< operational period
  /// Conservative MTTF estimate: the all-error per-node MTBE in op (the
  /// paper assumes every GPU error interrupts the node).
  double mttf_estimate_h() const;

  /// The job-impact settings of job_impact(), for renders that rerun the
  /// attribution (mitigation what-ifs).
  JobImpactConfig impact_config() const;

  const RunRows& rows() const { return rows_; }
  const cluster::Topology& topo() const { return topo_; }
  const Stage3Config& config() const { return cfg_; }
  /// Worker pool for sharded renders; null in serial mode.
  common::ThreadPool* pool() const { return pool_; }

 private:
  struct ShardMetrics {
    obs::Counter* jobs = nullptr;     ///< jobs scanned by this shard
    obs::Counter* exposed = nullptr;  ///< of those, jobs with >= 1 error
  };

  const cluster::Topology& topo_;
  Stage3Config cfg_;
  RunRows rows_;
  common::ThreadPool* pool_;
  obs::Counter* exposures_ = nullptr;     ///< exposed jobs, all joins
  obs::Histogram* join_us_ = nullptr;     ///< exposure-join latency
  std::vector<ShardMetrics> shards_;
};

}  // namespace gpures::analysis
