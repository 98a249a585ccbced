// Crash-safe follow-mode ingestion (the gpures-serve daemon core).
//
// A ServeSession tails a dataset directory the way a site would feed live
// logs: day files may grow, rotate, appear late, or fail to read; the
// accounting dump may trail behind.  The session advances a *frontier* —
// day sources are consumed strictly in date order, chunk by chunk, feeding
// the one in-memory analysis::AnalysisPipeline it owns — so the final
// errors / lifecycle / jobs sequences are byte-identical to that pipeline
// fed the same final bytes whole.  Chunk boundaries never affect results:
// classification and parsing are per-line, and chunks are always cut at the
// last newline.
//
// Resilience contract:
//  * Every source read runs under a bounded exponential-backoff retry
//    policy.  Transient faults (EINTR, fail-N-then-succeed, short reads —
//    see common::IoFaultPlan) are absorbed and counted.
//  * When the retry budget is exhausted, the source is *degraded*: it is
//    quarantined from further ingestion, reported in serve.* metrics and in
//    the data-quality report, and re-probed on a backoff cadence; the
//    session keeps serving every other source and still exits 0.
//  * A stall watchdog flags sources whose watermark stops advancing.
//  * With a checkpoint directory configured, the session persists an
//    atomic, checksummed checkpoint every N ticks (see serve/checkpoint.h):
//    a segment of the rows emitted since the previous one plus a small
//    manifest, so its cost tracks what changed, not the run so far.
//    kill -9 at any point followed by open(resume=true) replays to the
//    same final artifacts, at any thread count.
//
// A tick costs what changed, too: syslog/ is listed only when its mtime
// says an entry may have been created, renamed or removed (appends to a
// day file leave it alone), and sealed/degraded tallies are kept as
// counts rather than recounted over every day.
//
// This is the only way a dataset directory is read: gpures-analyze drains
// a session without a checkpoint directory (drain()), gpures-serve ticks
// one for as long as it runs.  The session keeps the files, the frontier,
// screening, data quality and checkpoints; Stages I-III are the pipeline's.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/data_quality.h"
#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/error.h"
#include "logsys/day_buffer.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "serve/checkpoint.h"

namespace gpures::serve {

/// Bounded exponential backoff applied to every source read.
struct RetryPolicy {
  std::uint32_t max_attempts = 5;     ///< total tries per read (>= 1)
  std::uint64_t backoff_ms = 10;      ///< first retry delay
  std::uint64_t backoff_max_ms = 1000;
  std::uint64_t deadline_ms = 0;      ///< total backoff budget; 0 = none
};

struct ServeConfig {
  std::filesystem::path data_dir;
  /// Empty disables checkpointing (still crash-safe, just resumes from
  /// scratch).
  std::filesystem::path checkpoint_dir;
  std::uint64_t checkpoint_interval = 16;  ///< ticks between snapshots
  std::uint32_t threads = 0;               ///< chunk-parse workers; 0 = serial
  std::uint64_t max_chunk_bytes = 4 << 20;
  /// Ticks without growth before a torn EOF fragment of a *rotated* day
  /// (a later day file exists) is consumed as torn, and before a
  /// non-advancing source is flagged stalled.
  std::uint64_t stall_ticks = 8;
  std::uint64_t reprobe_ticks = 16;  ///< degraded-source re-probe cadence
  RetryPolicy retry;
  analysis::IngestPolicy policy = analysis::IngestPolicy::kLenient;
  std::uint64_t error_budget = 0;
  logsys::LineScreen screen;
  analysis::CoalescerConfig coalescer;
  common::Duration attribution_window = 20;
  analysis::Attribution attribution = analysis::Attribution::kGpuLevel;
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  /// Registry for the serve.* metrics; the session owns a private one when
  /// null.  Metrics never feed back into analysis results.
  obs::MetricsRegistry* metrics = nullptr;
  /// Human-readable warnings (degradations, quarantines, stalls); null =
  /// silent.
  std::function<void(const std::string&)> warn;
  /// Test hook fired at named scheduler points ("tick", "ckpt-pre",
  /// "ckpt-seg" between the segment and manifest writes, "ckpt-post"); the
  /// CLI's --chaos-kill raises SIGKILL from here.
  std::function<void(const char*)> chaos_point;
  /// Backoff sleep, injectable so fault tests run at full speed; null uses
  /// a real sleep.  Sleeping never affects results, only wall-clock.
  std::function<void(std::uint64_t)> sleep_ms;
};

class ServeSession {
 public:
  explicit ServeSession(ServeConfig cfg);
  ~ServeSession();

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Read the manifest, discover sources, and (when `resume` and a usable
  /// checkpoint exists) restore the persisted ingestion state.  A checkpoint
  /// written under a different analysis configuration is rejected.
  common::Status open(bool resume);

  /// One scheduler tick: rescan the directory (when its mtime says an entry
  /// may have changed, and every reprobe_ticks), re-probe degraded sources,
  /// pump one chunk of the frontier day source and one of the accounting
  /// tail, run the stall watchdog, refresh gauges, and checkpoint on the
  /// configured cadence.  Returns an error only for fatal conditions
  /// (strict-mode offense, exceeded error budget) — I/O trouble degrades
  /// sources instead.
  common::Status tick();

  /// True when the last tick consumed nothing and every source is drained
  /// to EOF (sealed, degraded, or a final still-growing file at EOF).  The
  /// --once loop exits here; follow mode keeps ticking.
  bool idle() const { return idle_; }

  /// Drain every remaining byte (including torn EOF fragments and the
  /// accounting tail), flush the coalescer, sort results, and derive the
  /// data-quality report.  After this the result accessors are valid and
  /// the outputs equal a batch gpures-analyze run over the same bytes.
  common::Status finalize();

  /// Force a checkpoint now (used at graceful shutdown, before finalize()).
  /// No-op without a checkpoint directory.
  common::Status checkpoint_now();

  /// The --once loop: tick() until idle(), checkpoint_now(), finalize().
  /// `progress`, when given, sees (day files settled, day files known)
  /// after every tick.
  common::Status drain(obs::ProgressReporter* progress = nullptr);

  // ---- results (valid after finalize()) ----
  const std::vector<analysis::CoalescedError>& errors() const {
    return pipeline().errors();
  }
  const std::vector<analysis::LifecycleRecord>& lifecycle() const {
    return pipeline().lifecycle();
  }
  const analysis::JobTable& jobs() const { return pipeline().jobs(); }
  const analysis::DataQualityReport& quality() const { return quality_; }

  analysis::ErrorStats error_stats() const { return stage3().error_stats(); }
  analysis::JobStats job_stats() const { return stage3().job_stats(); }
  analysis::JobImpact job_impact() const { return stage3().job_impact(); }
  analysis::AvailabilityStats availability() const {
    return stage3().availability();
  }
  double mttf_estimate_h() const { return pipeline().mttf_estimate_h(); }
  /// Stage III over the session's rows (valid after open()).
  const analysis::Stage3& stage3() const { return pipeline().stage3(); }
  /// Snapshot of the pipe.* Stage-I/II counters (valid after open()).
  analysis::PipeCounts counters() const { return pipeline().counters(); }

  // ---- introspection ----
  const cluster::Topology& topo() const { return *topo_; }
  const analysis::StudyPeriods& periods() const { return periods_; }
  /// The pipeline's worker pool; null in serial mode or before open().
  common::ThreadPool* pool() const { return pipe_ ? pipe_->pool() : nullptr; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }
  std::uint64_t ticks() const { return tick_; }
  std::uint64_t checkpoint_seq() const { return seq_; }
  common::TimePoint watermark() const { return watermark_; }
  /// Stable hash of the analysis-relevant configuration (threads excluded:
  /// resuming at a different --threads is valid and byte-identical).
  std::uint64_t config_hash() const;
  /// Sources currently degraded (day files and/or accounting).
  std::uint64_t degraded_count() const;

 private:
  struct Source;
  struct Metrics;

  /// The pipeline the session feeds (valid after open()).
  const analysis::AnalysisPipeline& pipeline() const;

  /// List syslog/ for new day files and strays.  The listing is skipped
  /// when the directory's mtime proves nothing was created, renamed or
  /// removed since the last one; every reprobe_ticks it runs regardless.
  common::Status scan_sources();
  void reprobe_degraded();
  /// Read [offset, offset+max) of `path` under the retry policy.  On
  /// exhaustion returns the last error; the *caller* decides between
  /// degradation (lenient) and a fatal error (strict).
  common::Result<std::string> read_with_retry(const std::string& path,
                                              std::uint64_t offset,
                                              std::uint64_t max_bytes);
  void degrade(Source& src, const std::string& reason);
  void degrade_accounting(const std::string& reason);
  /// Pump one chunk of the frontier source.  `drain` (finalize) consumes
  /// torn fragments immediately instead of waiting out stall_ticks.
  common::Status pump_frontier(bool drain);
  common::Status pump_accounting(bool drain);
  /// Feed `text` (cut at a line boundary, or a final torn fragment when
  /// `torn_tail`) of day source `src` through the screen to the pipeline.
  common::Status consume_day_text(Source& src, std::string&& text,
                                  bool torn_tail);
  common::Status consume_accounting_text(std::string&& text);
  common::Status accounting_line(std::string_view line, std::uint64_t line_no,
                                 std::uint64_t byte_start);
  void seal(Source& src);
  /// Move the frontier past sealed and degraded sources.  A source's stall
  /// clock starts when it becomes the frontier (`stamp`), not when it was
  /// discovered: a day waiting its turn behind earlier days is not stalled.
  void advance_frontier(bool stamp = true);
  void watchdog_and_gauges();
  common::Status maybe_checkpoint();
  CheckpointManifest snapshot() const;
  void restore(Checkpoint&& ckpt);
  void derive_quality();

  ServeConfig cfg_;
  analysis::StudyPeriods periods_;
  std::unique_ptr<cluster::Topology> topo_;
  std::unique_ptr<analysis::AnalysisPipeline> pipe_;  ///< built by open()
  std::unique_ptr<CheckpointStore> store_;

  std::vector<Source> sources_;  ///< date order
  std::size_t frontier_ = 0;    ///< first unsealed, undegraded source
  std::size_t n_sealed_ = 0;    ///< day sources sealed
  std::size_t n_degraded_ = 0;  ///< day sources degraded
  std::size_t n_settled_ = 0;   ///< day sources sealed or degraded
  std::filesystem::path syslog_dir_;  ///< data_dir/syslog
  std::string acct_path_;             ///< data_dir/slurm_accounting.txt
  /// Discovery gate: syslog/'s mtime as of the last full listing, and when
  /// that listing started.
  bool listed_ = false;
  std::filesystem::file_time_type listed_mtime_;
  std::filesystem::file_time_type listed_at_;
  AccountingSnapshot acct_;
  bool acct_at_eof_ = false;
  std::vector<std::string> strays_;  ///< sorted, deduplicated

  analysis::DataQualityReport quality_;

  std::uint64_t tick_ = 0;
  std::uint64_t seq_ = 0;  ///< last checkpoint generation written/restored
  std::vector<SegmentRef> segments_;  ///< segments of generation seq_
  EmittedCounts persisted_;           ///< rows those segments hold
  std::uint64_t last_checkpoint_tick_ = 0;
  common::TimePoint watermark_ = 0;
  bool dirty_ = false;  ///< state changed since the last checkpoint
  bool idle_ = false;
  bool opened_ = false;
  bool finished_ = false;

  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  std::unique_ptr<Metrics> m_;
};

}  // namespace gpures::serve
