// The end-to-end analysis pipeline (paper Fig. 1) — the one engine for
// Stages I-II, behind every consumer: gpures-analyze and gpures-serve (via
// serve::ServeSession), a campaign with an attached pipeline, the examples
// and the benches.
//
// Stage I:  parse day chunks of raw syslog text (fast scanner, or the regex
//           oracle) and Slurm accounting lines; resolve hostnames/PCI ids to
//           GPUs.
// Stage II: coalesce duplicated XID records into errors in one streaming
//           coalescer; finish() sorts the rows into their final order.
// Stage III:error statistics (Table I), job impact (Table II), job
//           population (Table III) and availability (Fig. 2) over the rows
//           (analysis/stages.h).
//
// The pipeline consumes raw artifacts only — never simulator ground truth —
// so validating its outputs against ground truth is a genuine end-to-end
// test of the measurement methodology.
//
// With a worker pool (PipelineConfig::num_threads > 0) each day chunk is
// split into contiguous line ranges parsed on the pool and merged in range
// order, so the coalescer sees the same observation sequence as a serial
// run; Stage III shards by job range and by host.  Output is byte-identical
// at any thread count (see DESIGN.md "Parallel pipeline determinism").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/extraction.h"
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
  /// Worker threads.  0 (the default) runs fully serial; N > 0 parses each
  /// day chunk as N contiguous line ranges and shards Stage III by job and
  /// host on N workers — results are byte-identical to serial for any N.
  std::uint32_t num_threads = 0;
  /// Observability registry for the pipe.* metrics.  When null the pipeline
  /// owns a private registry, so metrics are always collected; the flag
  /// only controls where they can be read from.  Give each pipeline its own
  /// registry unless aggregate counts are wanted.  Metrics never feed back
  /// into analysis results.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What one accounting-dump line turned out to be.
enum class AccountingLine { kBlank, kHeader, kJob, kMalformed };

class AnalysisPipeline {
 public:
  AnalysisPipeline(const cluster::Topology& topo, PipelineConfig cfg);
  ~AnalysisPipeline();

  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

  // ---- Stage I/II ingestion ----
  /// Parse one chunk of a day (any run of its lines, in order) and feed its
  /// observations to the coalescer.  Stage I reads string_view slices
  /// straight out of the arena, which need only live for the call.  Returns
  /// the latest observation time fed, or 0 when the chunk held none.  This
  /// is the hot path; the overloads below are conveniences that funnel
  /// into it.
  common::TimePoint ingest_day(common::TimePoint day_start,
                               const logsys::DayBuffer& day);
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
  /// Parse one accounting line and add its job.  Blank lines are skipped
  /// uncounted; the header and every job row count as accounting lines;
  /// malformed rows also count as accounting errors and are skipped here
  /// (the caller's ingest policy decides whether that aborts the run).
  AccountingLine ingest_accounting(std::string_view line);
  /// Same, answering only whether the line was well formed.
  bool ingest_accounting_line(std::string_view line) {
    return ingest_accounting(line) != AccountingLine::kMalformed;
  }

  /// Flush the coalescer and sort results.  Call once after all ingestion.
  void finish();

  // ---- checkpoint seams (the serve daemon's resume path) ----
  /// The rows emitted so far; append-only until finish().
  const EmittedRows& rows() const { return rows_; }
  /// The coalescer's in-flight groups.
  CoalescerState coalescer_state() const { return coalescer_->state(); }
  /// Resume from a checkpoint: replace the rows and the coalescer state.
  void restore(const CoalescerState& state, EmittedRows&& rows);

  // ---- results (valid after finish()) ----
  const std::vector<CoalescedError>& errors() const { return rows_.errors; }
  const std::vector<LifecycleRecord>& lifecycle() const {
    return rows_.lifecycle;
  }
  const JobTable& jobs() const { return rows_.jobs; }

  ErrorStats error_stats() const { return stage3_->error_stats(); }
  /// Full characterization window.
  JobStats job_stats() const { return stage3_->job_stats(); }
  /// Operational period.
  JobImpact job_impact() const { return stage3_->job_impact(); }
  /// Operational period.
  AvailabilityStats availability() const { return stage3_->availability(); }
  /// See analysis::mttf_estimate_h(const ErrorStats&).
  double mttf_estimate_h() const {
    return analysis::mttf_estimate_h(error_stats());
  }
  /// Stage III over this pipeline's rows (what the accessors above call;
  /// an emitter that wants them all calls stage3().results() once).
  const Stage3& stage3() const { return *stage3_; }

  // ---- diagnostics ----
  /// Snapshot view of the nine pipe.* Stage-I/II counters.  The values
  /// themselves live on the obs metrics registry (PipelineConfig::metrics
  /// or the pipeline's private one).
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
  struct Metrics;

  const cluster::Topology& topo_;
  PipelineConfig cfg_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< effective registry
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  std::unique_ptr<Metrics> m_;
  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<std::unique_ptr<LineParser>> parsers_;  ///< one per worker
  std::unique_ptr<Coalescer> coalescer_;
  EmittedRows rows_;
  std::unique_ptr<Stage3> stage3_;
  bool finished_ = false;
};

}  // namespace gpures::analysis
