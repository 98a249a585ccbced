// The end-to-end analysis pipeline (paper Fig. 1).
//
// Stage I:  ingest per-day raw syslog text (regex or fast matcher) and the
//           Slurm accounting dump; resolve hostnames/PCI ids to GPUs.
// Stage II: coalesce duplicated XID records into errors; compute error
//           counts and MTBE per family/category/period.
// Stage III:correlate errors with job records (Table II), job population
//           statistics (Table III), and node availability (Fig. 2, §V-C).
//
// The pipeline consumes raw artifacts only — never simulator ground truth —
// so validating its outputs against ground truth is a genuine end-to-end
// test of the measurement methodology.
//
// Parallel mode (PipelineConfig::num_threads > 0) shards Stage I by day,
// Stage II by GPU, and Stage III by job range (the exposure join runs
// against a read-only per-location error index) and by host for
// availability, then merges deterministically; the output is byte-identical
// to a serial run (see DESIGN.md "Parallel pipeline determinism").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/availability.h"
#include "analysis/coalesce.h"
#include "analysis/error_stats.h"
#include "analysis/extraction.h"
#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "analysis/periods.h"
#include "analysis/stages.h"
#include "cluster/topology.h"
#include "common/thread_pool.h"
#include "logsys/day_buffer.h"
#include "logsys/log_store.h"
#include "obs/metrics.h"

namespace gpures::analysis {

struct PipelineConfig {
  StudyPeriods periods = StudyPeriods::delta();
  CoalescerConfig coalescer;
  /// Outlier handling for the aggregate MTBE (see ErrorStatsConfig).
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  /// Job-failure attribution window (paper: 20 s).
  common::Duration attribution_window = 20;
  /// Error-to-job attribution granularity (see job_impact.h).
  Attribution attribution = Attribution::kGpuLevel;
  /// Use the std::regex Stage-I matcher instead of the fast scanner (a
  /// test oracle for the fast one; no CLI exposes it).
  bool use_regex_parser = false;
  /// Worker threads for every stage.  0 (the default) runs fully serial;
  /// N > 0 runs Stage I day-sharded, Stage II GPU-sharded, and Stage III
  /// job-/host-sharded on N workers with a deterministic ordered merge —
  /// results are byte-identical to serial for any N.
  std::uint32_t num_threads = 0;
  /// Days buffered per parallel Stage-I batch (bounds memory when streaming
  /// a long campaign).  0 picks 4 * num_threads.  Has no effect on results.
  std::uint32_t stage1_batch_days = 0;
  /// Observability registry for the pipe.* metrics (stage counters,
  /// per-worker parse totals, day-parse latency histogram).  When null the
  /// pipeline owns a private registry, so metrics are always collected;
  /// the flag only controls where they can be read from.  Give each
  /// pipeline its own registry unless aggregate counts are wanted.
  /// Metrics never feed back into analysis results.
  obs::MetricsRegistry* metrics = nullptr;
};

class AnalysisPipeline {
 public:
  AnalysisPipeline(const cluster::Topology& topo, PipelineConfig cfg);
  ~AnalysisPipeline();

  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

  // ---- Stage I ingestion ----
  /// Ingest one consolidated day as an arena: the pipeline takes ownership
  /// and Stage-I workers parse string_view slices straight out of the day
  /// buffer — zero per-line copies.  This is the hot path; the overloads
  /// below are copying conveniences that funnel into it.
  void ingest_day(common::TimePoint day_start, logsys::DayBuffer&& day);
  /// Ingest one consolidated day of raw log lines (copies into an arena).
  void ingest_log_day(common::TimePoint day_start,
                      std::span<const logsys::RawLine> lines);
  /// Ingest newline-separated day text by taking ownership of the string:
  /// the text becomes the day's arena with no copy (callers pass the whole
  /// file straight through).
  void ingest_log_text(common::TimePoint day_start, std::string&& text);
  /// Same, from borrowed text (copies once into an arena).
  void ingest_log_text(common::TimePoint day_start, std::string_view text);
  /// Disambiguates string literals (would match both overloads above).
  void ingest_log_text(common::TimePoint day_start, const char* text) {
    ingest_log_text(day_start, std::string_view(text));
  }
  /// Ingest one accounting line.  Returns false when the line is malformed
  /// (counted and skipped here; the caller's ingest policy decides whether
  /// that aborts the run).  Header and blank lines are accepted trivially.
  bool ingest_accounting_line(std::string_view line);

  /// Flush the coalescer and sort results.  Call once after all ingestion.
  void finish();

  // ---- results (valid after finish()) ----
  const std::vector<CoalescedError>& errors() const { return errors_; }
  const std::vector<LifecycleRecord>& lifecycle() const { return lifecycle_; }
  const JobTable& jobs() const { return jobs_; }

  ErrorStats error_stats() const { return stage3_->error_stats(); }
  /// Full characterization window.
  JobStats job_stats() const { return stage3_->job_stats(); }
  /// Custom window.
  JobStats job_stats(const Period& w) const { return stage3_->job_stats(w); }
  /// Operational period.
  JobImpact job_impact() const { return stage3_->job_impact(); }
  /// Operational period.
  AvailabilityStats availability() const { return stage3_->availability(); }
  /// Conservative MTTF estimate: the all-error per-node MTBE in op (the
  /// paper assumes every GPU error interrupts the node).
  double mttf_estimate_h() const { return stage3_->mttf_estimate_h(); }
  /// Stage III over this pipeline's rows (what the accessors above call).
  const Stage3& stage3() const { return *stage3_; }

  // ---- diagnostics ----
  /// Snapshot view of the pipe.* metrics.  The values themselves live on
  /// the obs metrics registry (PipelineConfig::metrics or the pipeline's
  /// private one).
  using Counters = PipeCounts;
  Counters counters() const;
  /// The registry collecting this pipeline's metrics (never null).  The
  /// mutable overload lets callers register their own families on the same
  /// registry, so one --metrics artifact covers the whole run.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const PipelineConfig& config() const { return cfg_; }
  /// The worker pool shared by every stage; null in serial mode.  Callers
  /// running Stage-III renders outside the pipeline (trends, survival,
  /// mitigation) pass this through so --threads governs them too.
  common::ThreadPool* pool() const { return pool_.get(); }

 private:
  struct PendingDay {
    common::TimePoint day_start = 0;
    logsys::DayBuffer day;
  };
  /// Per-worker-slot Stage-I totals (slot 0 in serial mode).
  struct WorkerMetrics {
    obs::Counter* days_parsed = nullptr;
    obs::Counter* lines = nullptr;
    obs::Counter* parse_time_ns = nullptr;
  };

  Stage1Batch parse_day(const LineParser& parser, std::size_t worker,
                        common::TimePoint day_start,
                        const logsys::DayBuffer& day) const;
  std::size_t shard_of(xid::GpuId gpu) const;
  /// Parallel mode: Stage-I parse all pending days on the pool, merge the
  /// per-day batches in day order, and drain each Stage-II shard.
  void flush_pending_days();

  const cluster::Topology& topo_;
  PipelineConfig cfg_;

  // Serial mode.
  std::unique_ptr<LineParser> parser_;
  std::unique_ptr<Coalescer> coalescer_;

  // Parallel mode (num_threads > 0).
  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<std::unique_ptr<LineParser>> worker_parsers_;
  std::vector<std::unique_ptr<Coalescer>> shard_coalescers_;
  std::vector<std::vector<CoalescedError>> shard_errors_;
  std::vector<std::vector<XidObservation>> shard_feed_;
  std::vector<PendingDay> pending_days_;
  std::size_t batch_days_ = 0;

  std::vector<CoalescedError> errors_;
  std::vector<LifecycleRecord> lifecycle_;
  JobTable jobs_;

  obs::MetricsRegistry* metrics_ = nullptr;  ///< effective registry
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  PipeMetrics m_;
  obs::Histogram* day_parse_us_ = nullptr;
  std::vector<WorkerMetrics> worker_metrics_;
  std::unique_ptr<Stage3> stage3_;

  bool finished_ = false;
};

}  // namespace gpures::analysis
