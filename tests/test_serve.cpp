// Follow-mode serve session: its results must be byte-identical to the
// in-memory pipeline fed the same final dataset bytes — through checkpoints,
// abandoned sessions, appends, torn tails, transient I/O faults, and thread
// counts.  Permanent faults degrade sources instead of failing the run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/export.h"
#include "analysis/markdown_report.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/io.h"
#include "common/json.h"
#include "common/time.h"
#include "index/writer.h"
#include "ingest_helpers.h"
#include "logsys/syslog.h"
#include "obs/trace.h"
#include "serve/serve.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gt = gpures::testing;
namespace gx = gpures::xid;
namespace ix = gpures::index;
namespace ls = gpures::logsys;
namespace ob = gpures::obs;
namespace sl = gpures::slurm;
namespace sv = gpures::serve;
namespace fs = std::filesystem;

namespace {

const ct::TimePoint kDay0 = ct::make_date(2023, 6, 1);

fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("gpures_serve_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Same shape as the chaos-suite fixture: every day has XIDs and lifecycle
/// lines on known GPUs, and the accounting dump has parseable jobs.
fs::path make_dataset(const std::string& name, int n_days) {
  const auto dir = temp_dir(name);
  an::DatasetManifest m;
  m.spec = cl::ClusterSpec::small(2, 0);
  m.periods = an::StudyPeriods::make(kDay0, kDay0 + 2 * ct::kDay,
                                     kDay0 + n_days * ct::kDay);
  const cl::Topology topo(m.spec);
  an::DatasetWriter w(dir, m);
  for (int d = 0; d < n_days; ++d) {
    const auto day = kDay0 + d * ct::kDay;
    std::vector<ls::RawLine> lines;
    lines.push_back({day + 3600,
                     ls::render_xid_line(day + 3600, "gpua001",
                                         topo.pci_bus({0, d % 4}),
                                         gx::Code::kGspRpcTimeout,
                                         "Timeout waiting for RPC from GSP!")});
    lines.push_back({day + 7200,
                     ls::render_xid_line(day + 7200, "gpua002",
                                         topo.pci_bus({1, (d + 1) % 4}),
                                         gx::Code::kUncontainedEccError,
                                         "Uncontained ECC error")});
    lines.push_back({day + 9000, ls::render_drain_line(day + 9000, "gpua002")});
    lines.push_back({day + 9600, ls::render_resume_line(day + 9600, "gpua002")});
    w.write_day(day, lines);
  }
  w.write_accounting_line(sl::accounting_header());
  for (int j = 0; j < 6; ++j) {
    sl::JobRecord rec;
    rec.id = static_cast<sl::JobId>(100 + j);
    rec.name = "job" + std::to_string(j);
    rec.submit = kDay0 + j * 600;
    rec.start = rec.submit + 60;
    rec.end = rec.start + 3600;
    rec.gpus = 1;
    rec.nodes = 1;
    rec.node_list = {j % 2};
    rec.gpu_list = {{j % 2, j % 4}};
    w.write_accounting_line(sl::to_accounting_line(rec, topo));
  }
  const auto st = w.finalize();
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  return dir;
}

fs::path day_file(const fs::path& dir, int d) {
  return dir / "syslog" /
         ("syslog-" + ct::format_date(kDay0 + d * ct::kDay) + ".log");
}

void append_raw(const fs::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

struct BatchOutcome {
  std::vector<an::CoalescedError> errors;
  std::size_t lifecycle = 0;
  std::size_t jobs = 0;
  an::DataQualityReport quality;
};

/// The reference over the final bytes: rows from the in-memory pipeline
/// fed whole day files, and the quality report of one uninterrupted lenient
/// drain (what `gpures-analyze --ingest-policy lenient` reports).
BatchOutcome batch_load(const fs::path& dir, std::uint32_t threads = 0) {
  BatchOutcome out;
  const auto m = an::read_manifest(dir);
  EXPECT_TRUE(m.ok()) << (m.ok() ? "" : m.error().message);
  const cl::Topology topo(m.value().spec);
  an::PipelineConfig pcfg;
  pcfg.periods = m.value().periods;
  pcfg.num_threads = threads;
  an::AnalysisPipeline pipe(topo, pcfg);
  gt::feed_pipeline(dir, pipe);
  out.errors = pipe.errors();
  out.lifecycle = pipe.lifecycle().size();
  out.jobs = pipe.jobs().jobs.size();
  sv::ServeSession s(gt::analyze_config(dir, an::IngestPolicy::kLenient));
  auto st = s.open(false);
  if (st.ok()) st = s.drain();
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  out.quality = s.quality();
  return out;
}

sv::ServeConfig base_config(const fs::path& dir, std::uint32_t threads) {
  sv::ServeConfig cfg;
  cfg.data_dir = dir;
  cfg.threads = threads;
  cfg.retry.backoff_ms = 1;
  cfg.retry.backoff_max_ms = 2;
  cfg.sleep_ms = [](std::uint64_t) {};  // fault tests run at full speed
  return cfg;
}

struct ServeOutcome {
  bool ok = false;
  ct::Error error;
  std::vector<an::CoalescedError> errors;
  std::size_t lifecycle = 0;
  std::size_t jobs = 0;
  std::uint64_t degraded = 0;
  an::DataQualityReport quality;
};

/// The outcome of a finalized session.
ServeOutcome outcome_of(const sv::ServeSession& s) {
  ServeOutcome out;
  out.ok = true;
  out.errors = s.errors();
  out.lifecycle = s.lifecycle().size();
  out.jobs = s.jobs().jobs.size();
  out.degraded = s.degraded_count();
  out.quality = s.quality();
  return out;
}

/// Tick to idle (the --once loop), then finalize.
ServeOutcome run_once(sv::ServeConfig cfg) {
  ServeOutcome out;
  sv::ServeSession s(std::move(cfg));
  auto st = s.open(false);
  if (!st.ok()) {
    out.error = st.error();
    return out;
  }
  for (int i = 0; i < 4096 && !s.idle(); ++i) {
    st = s.tick();
    if (!st.ok()) {
      out.error = st.error();
      return out;
    }
  }
  EXPECT_TRUE(s.idle()) << "session failed to reach idle";
  st = s.finalize();
  if (!st.ok()) {
    out.error = st.error();
    return out;
  }
  return outcome_of(s);
}

void expect_same_errors(const std::vector<an::CoalescedError>& got,
                        const std::vector<an::CoalescedError>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << i;
    EXPECT_EQ(got[i].last, want[i].last) << i;
    EXPECT_EQ(got[i].gpu, want[i].gpu) << i;
    EXPECT_EQ(got[i].code, want[i].code) << i;
    EXPECT_EQ(got[i].raw_xid, want[i].raw_xid) << i;
    EXPECT_EQ(got[i].raw_lines, want[i].raw_lines) << i;
  }
}

void expect_matches_batch(const ServeOutcome& serve, const BatchOutcome& batch) {
  expect_same_errors(serve.errors, batch.errors);
  EXPECT_EQ(serve.lifecycle, batch.lifecycle);
  EXPECT_EQ(serve.jobs, batch.jobs);
  EXPECT_EQ(serve.quality.to_json(), batch.quality.to_json());
}

/// Set syslog/'s mtime an hour back, so the discovery gate may trust it.
fs::file_time_type backdate_syslog(const fs::path& dir) {
  const auto old = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(dir / "syslog", old);
  return old;
}

std::uint64_t rescans(const sv::ServeSession& s) {
  return s.metrics().counter_value("serve.sources.rescans");
}

std::int64_t sources_total(sv::ServeSession& s) {
  return s.metrics().gauge("serve.sources.total").value();
}

}  // namespace

TEST(Serve, OnceMatchesBatchPipelineAtAnyThreadCount) {
  const auto dir = make_dataset("once_batch", 4);
  const BatchOutcome batch = batch_load(dir);
  ASSERT_FALSE(batch.errors.empty());
  for (const std::uint32_t threads : {0u, 4u}) {
    const ServeOutcome serve = run_once(base_config(dir, threads));
    ASSERT_TRUE(serve.ok) << "threads " << threads << ": "
                          << serve.error.message;
    expect_matches_batch(serve, batch);
  }
  fs::remove_all(dir);
}

TEST(Serve, TinyChunksDoNotChangeResults) {
  const auto dir = make_dataset("tiny_chunks", 3);
  const BatchOutcome batch = batch_load(dir);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.max_chunk_bytes = 48;  // several reads per day file, cut mid-line
  const ServeOutcome serve = run_once(std::move(cfg));
  ASSERT_TRUE(serve.ok) << serve.error.message;
  expect_matches_batch(serve, batch);
  fs::remove_all(dir);
}

TEST(Serve, AbandonedSessionResumesToIdenticalResults) {
  const auto dir = make_dataset("resume", 4);
  const auto ckpt = temp_dir("resume_ckpt");
  const BatchOutcome batch = batch_load(dir);

  for (const int kill_after : {1, 2, 3, 5}) {
    fs::remove_all(ckpt);
    {
      // First incarnation: checkpoint every tick, small chunks so ingestion
      // spans many ticks, then vanish without finalize — like kill -9.
      sv::ServeConfig cfg = base_config(dir, 4);
      cfg.checkpoint_dir = ckpt;
      cfg.checkpoint_interval = 1;
      cfg.max_chunk_bytes = 64;
      sv::ServeSession s(std::move(cfg));
      ASSERT_TRUE(s.open(false).ok());
      for (int i = 0; i < kill_after; ++i) {
        const auto st = s.tick();
        ASSERT_TRUE(st.ok()) << st.error().message;
      }
    }
    // Second incarnation resumes — at a *different* thread count — and must
    // land on the same bytes as batch.
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.checkpoint_dir = ckpt;
    cfg.checkpoint_interval = 1;
    cfg.max_chunk_bytes = 64;
    sv::ServeSession s(std::move(cfg));
    ASSERT_TRUE(s.open(true).ok());
    for (int i = 0; i < 4096 && !s.idle(); ++i) {
      const auto st = s.tick();
      ASSERT_TRUE(st.ok()) << st.error().message;
    }
    ASSERT_TRUE(s.finalize().ok());
    EXPECT_GT(s.checkpoint_seq(), 0u) << "resume did not find a checkpoint";
    expect_matches_batch(outcome_of(s), batch);
  }
  fs::remove_all(dir);
  fs::remove_all(ckpt);
}

TEST(Serve, ResumeRejectsChangedAnalysisConfig) {
  const auto dir = make_dataset("cfg_guard", 3);
  const auto ckpt = temp_dir("cfg_guard_ckpt");
  {
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.checkpoint_dir = ckpt;
    cfg.checkpoint_interval = 1;
    sv::ServeSession s(std::move(cfg));
    ASSERT_TRUE(s.open(false).ok());
    ASSERT_TRUE(s.tick().ok());
    ASSERT_TRUE(s.checkpoint_now().ok());
  }
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.checkpoint_dir = ckpt;
  cfg.coalescer.window = 120;  // result-affecting change
  sv::ServeSession s(std::move(cfg));
  const auto st = s.open(true);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("different configuration"),
            std::string::npos)
      << st.error().message;
  fs::remove_all(dir);
  fs::remove_all(ckpt);
}

TEST(Serve, ConfigHashIgnoresThreadsAndChunking) {
  const auto dir = make_dataset("cfg_hash", 3);
  sv::ServeConfig a = base_config(dir, 0);
  sv::ServeConfig b = base_config(dir, 8);
  b.max_chunk_bytes = 128;
  b.retry.max_attempts = 9;
  sv::ServeConfig c = base_config(dir, 0);
  c.coalescer.window = 120;
  sv::ServeSession sa(std::move(a)), sb(std::move(b)), sc(std::move(c));
  EXPECT_EQ(sa.config_hash(), sb.config_hash());
  EXPECT_NE(sa.config_hash(), sc.config_hash());
  fs::remove_all(dir);
}

TEST(Serve, FollowModeIngestsAppendsAndSplitLines) {
  const auto dir = make_dataset("follow", 3);
  const cl::Topology topo(cl::ClusterSpec::small(2, 0));
  const auto last_day = kDay0 + 2 * ct::kDay;  // still-growing newest file
  const std::string line1 =
      ls::render_xid_line(last_day + 50000, "gpua001", topo.pci_bus({0, 2}),
                          gx::Code::kGspRpcTimeout, "late RPC timeout");
  const std::string line2 = ls::render_drain_line(last_day + 50100, "gpua001");

  sv::ServeConfig cfg = base_config(dir, 0);
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());

  // The producer appends half a line; the daemon must hold the fragment.
  append_raw(day_file(dir, 2), line1.substr(0, line1.size() / 2));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(s.tick().ok());
  // Then the rest arrives, plus a whole second line.
  append_raw(day_file(dir, 2),
             line1.substr(line1.size() / 2) + "\n" + line2 + "\n");
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());

  // Batch over the final bytes sees exactly the same stream.
  expect_matches_batch(outcome_of(s), batch_load(dir));
  fs::remove_all(dir);
}

TEST(Serve, TransientFaultsAreAbsorbedByRetry) {
  const auto dir = make_dataset("transient", 3);
  const BatchOutcome batch = batch_load(dir);
  const struct {
    ct::IoFaultKind kind;
    std::uint64_t bytes;
    std::uint32_t times;
  } cases[] = {
      {ct::IoFaultKind::kTransient, 0, 2},
      {ct::IoFaultKind::kEintr, 10, 2},
      {ct::IoFaultKind::kShortRead, 10, 1},
  };
  for (const auto& c : cases) {
    ct::IoFaultPlan plan;
    plan.path_substring = "syslog-2023-06-02";
    plan.fail_after_bytes = c.bytes;
    plan.kind = c.kind;
    plan.times = c.times;
    ct::set_io_fault_plan(&plan);
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.retry.max_attempts = 5;
    const ServeOutcome serve = run_once(std::move(cfg));
    ct::set_io_fault_plan(nullptr);
    ASSERT_TRUE(serve.ok) << ct::to_string(c.kind) << ": "
                          << serve.error.message;
    EXPECT_EQ(serve.degraded, 0u) << ct::to_string(c.kind);
    expect_matches_batch(serve, batch);
  }
  fs::remove_all(dir);
}

TEST(Serve, PermanentFaultDegradesSourceAndKeepsServing) {
  const auto dir = make_dataset("degrade", 3);
  const BatchOutcome batch = batch_load(dir);
  ct::IoFaultPlan plan;
  plan.path_substring = "syslog-2023-06-02";  // middle day, permanent failure
  plan.kind = ct::IoFaultKind::kFail;
  ct::set_io_fault_plan(&plan);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.retry.max_attempts = 2;
  cfg.reprobe_ticks = 1000000;  // keep it quarantined for this run
  std::vector<std::string> warns;
  cfg.warn = [&](const std::string& w) { warns.push_back(w); };
  const ServeOutcome serve = run_once(std::move(cfg));
  ct::set_io_fault_plan(nullptr);

  ASSERT_TRUE(serve.ok) << serve.error.message;
  EXPECT_EQ(serve.degraded, 1u);
  ASSERT_EQ(serve.quality.degraded_sources.size(), 1u);
  EXPECT_EQ(serve.quality.degraded_sources[0].name, "syslog-2023-06-02.log");
  EXPECT_EQ(serve.quality.degraded_sources[0].bytes_ingested, 0u);
  ASSERT_EQ(serve.quality.skipped_days.size(), 1u);
  EXPECT_EQ(serve.quality.skipped_days[0].date, "2023-06-02");
  bool warned = false;
  for (const auto& w : warns) {
    if (w.find("degrading source") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);

  // Every other day still served: batch errors minus the quarantined day.
  std::vector<an::CoalescedError> want;
  const auto day1 = kDay0 + ct::kDay;
  for (const auto& e : batch.errors) {
    if (e.time < day1 || e.time >= day1 + ct::kDay) want.push_back(e);
  }
  expect_same_errors(serve.errors, want);
  fs::remove_all(dir);
}

TEST(Serve, StrictModeTurnsExhaustedRetryFatal) {
  const auto dir = make_dataset("strict_fault", 3);
  ct::IoFaultPlan plan;
  plan.path_substring = "syslog-2023-06-01";
  plan.kind = ct::IoFaultKind::kFail;
  ct::set_io_fault_plan(&plan);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.policy = an::IngestPolicy::kStrict;
  cfg.retry.max_attempts = 2;
  const ServeOutcome serve = run_once(std::move(cfg));
  ct::set_io_fault_plan(nullptr);
  ASSERT_FALSE(serve.ok);
  EXPECT_NE(serve.error.message.find("dataset: cannot read"), std::string::npos)
      << serve.error.message;
  fs::remove_all(dir);
}

TEST(Serve, StallWatchdogFlagsAndDrainsRotatedTornFragment) {
  const auto dir = make_dataset("stall", 3);
  // A torn fragment at the tail of the *rotated* first day: the producer
  // died mid-write and will never finish the line.
  append_raw(day_file(dir, 0), "Jun  1 23:59:59 gpua001 kernel: torn writ");
  const BatchOutcome batch = batch_load(dir);
  ASSERT_EQ(batch.quality.torn_lines, 1u);

  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.stall_ticks = 3;
  std::vector<std::string> warns;
  cfg.warn = [&](const std::string& w) { warns.push_back(w); };
  const ServeOutcome serve = run_once(std::move(cfg));
  ASSERT_TRUE(serve.ok) << serve.error.message;
  EXPECT_EQ(serve.quality.torn_lines, 1u);
  expect_matches_batch(serve, batch);
  fs::remove_all(dir);
}

TEST(Serve, AccountingTailAppendsAndMalformedRows) {
  const auto dir = make_dataset("acct", 3);
  // One malformed row appended after dataset creation.
  append_raw(dir / "slurm_accounting.txt", "this|is|not|a|row\n");
  const BatchOutcome batch = batch_load(dir);

  const ServeOutcome serve = run_once(base_config(dir, 0));
  ASSERT_TRUE(serve.ok) << serve.error.message;
  EXPECT_EQ(serve.jobs, 6u);
  EXPECT_EQ(serve.quality.accounting_rows_rejected, 1u);
  expect_matches_batch(serve, batch);

  // Strict mode names the malformed row instead.
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.policy = an::IngestPolicy::kStrict;
  const ServeOutcome strict = run_once(std::move(cfg));
  ASSERT_FALSE(strict.ok);
  EXPECT_NE(strict.error.message.find("malformed accounting row"),
            std::string::npos)
      << strict.error.message;
  fs::remove_all(dir);
}

TEST(Serve, LateDayFileIsQuarantinedNotSilentlyDropped) {
  const auto dir = make_dataset("late_day", 3);
  const auto day1_path = day_file(dir, 1);
  std::string day1_bytes;
  {
    auto r = ct::read_file(day1_path.string());
    ASSERT_TRUE(r.ok());
    day1_bytes = std::move(r).take();
  }
  fs::remove(day1_path);

  sv::ServeConfig cfg = base_config(dir, 0);
  std::vector<std::string> warns;
  cfg.warn = [&](const std::string& w) { warns.push_back(w); };
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());

  // The file shows up *after* the frontier passed its slot — too late to
  // ingest deterministically, so it must be degraded, not silently mixed in.
  ASSERT_TRUE(ct::write_text_file(day1_path.string(), day1_bytes).ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());

  EXPECT_GE(s.degraded_count(), 1u);
  bool found = false;
  for (const auto& d : s.quality().degraded_sources) {
    if (d.name == "syslog-2023-06-02.log") {
      found = true;
      EXPECT_NE(d.reason.find("slot"), std::string::npos) << d.reason;
    }
  }
  EXPECT_TRUE(found);
  fs::remove_all(dir);
}

TEST(Serve, StrayFilesAreReportedOnce) {
  const auto dir = make_dataset("strays", 3);
  ASSERT_TRUE(
      ct::write_text_file((dir / "syslog" / "notes.txt").string(), "hi\n")
          .ok());
  const ServeOutcome serve = run_once(base_config(dir, 0));
  ASSERT_TRUE(serve.ok) << serve.error.message;
  ASSERT_EQ(serve.quality.stray_files.size(), 1u);
  EXPECT_EQ(serve.quality.stray_files[0], "notes.txt");
  fs::remove_all(dir);
}

TEST(Serve, UnchangedDirectoryIsListedOnlyOnTheBackstop) {
  const auto dir = make_dataset("gate_quiet", 4);
  const BatchOutcome batch = batch_load(dir);
  backdate_syslog(dir);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.max_chunk_bytes = 64;  // many ticks
  cfg.reprobe_ticks = 5;
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  EXPECT_EQ(rescans(s), 1u);  // open() lists once
  for (int i = 0; i < 4096 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());
  ASSERT_GE(s.ticks(), 15u);
  EXPECT_LE(rescans(s), 1 + s.ticks() / 5);
  ASSERT_TRUE(s.finalize().ok());
  expect_matches_batch(outcome_of(s), batch);
  fs::remove_all(dir);
}

TEST(Serve, DayFileCreatedMidSessionIsFoundOnTheNextTick) {
  const auto dir = make_dataset("gate_create", 3);
  const auto day2_path = day_file(dir, 2);
  std::string day2_bytes;
  {
    auto r = ct::read_file(day2_path.string());
    ASSERT_TRUE(r.ok());
    day2_bytes = std::move(r).take();
  }
  fs::remove(day2_path);
  backdate_syslog(dir);

  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.reprobe_ticks = 1000000;  // only the mtime can trigger a listing
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());
  EXPECT_EQ(rescans(s), 1u);
  EXPECT_EQ(sources_total(s), 2);

  // The producer rotates to a new day: the create moves syslog/'s mtime.
  ASSERT_TRUE(ct::write_text_file(day2_path.string(), day2_bytes).ok());
  ASSERT_TRUE(s.tick().ok());
  EXPECT_EQ(rescans(s), 2u);
  EXPECT_EQ(sources_total(s), 3);
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());
  expect_matches_batch(outcome_of(s), batch_load(dir));
  fs::remove_all(dir);
}

TEST(Serve, SkewedClockFileIsFoundByTheReprobeBackstop) {
  const auto dir = make_dataset("gate_skew", 3);
  const auto day2_path = day_file(dir, 2);
  std::string day2_bytes;
  {
    auto r = ct::read_file(day2_path.string());
    ASSERT_TRUE(r.ok());
    day2_bytes = std::move(r).take();
  }
  fs::remove(day2_path);
  const auto old_mtime = backdate_syslog(dir);

  constexpr std::uint64_t kReprobe = 8;
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.reprobe_ticks = kReprobe;
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());
  // Start right after a backstop listing, so the gate alone decides the
  // next kReprobe - 1 ticks.
  while (s.ticks() % kReprobe != 0) ASSERT_TRUE(s.tick().ok());

  // A create whose mtime update is lost to a clock stepping backwards.
  ASSERT_TRUE(ct::write_text_file(day2_path.string(), day2_bytes).ok());
  fs::last_write_time(dir / "syslog", old_mtime);
  for (std::uint64_t i = 1; i < kReprobe; ++i) {
    ASSERT_TRUE(s.tick().ok());
    EXPECT_EQ(sources_total(s), 2) << "tick " << s.ticks();
  }
  ASSERT_TRUE(s.tick().ok());  // the backstop listing
  EXPECT_EQ(s.ticks() % kReprobe, 0u);
  EXPECT_EQ(sources_total(s), 3);
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());
  expect_matches_batch(outcome_of(s), batch_load(dir));
  fs::remove_all(dir);
}

TEST(Serve, CheckpointBytesGrowLinearlyNotQuadratically) {
  const auto dir = make_dataset("ckpt_linear", 6);
  const auto ckpt = temp_dir("ckpt_linear_ckpt");
  const BatchOutcome batch = batch_load(dir);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.checkpoint_dir = ckpt;
  cfg.checkpoint_interval = 1;
  cfg.max_chunk_bytes = 64;
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  const sv::CheckpointStore store(ckpt);
  std::uintmax_t largest_manifest = 0;
  for (int i = 0; i < 4096 && !s.idle(); ++i) {
    ASSERT_TRUE(s.tick().ok());
    largest_manifest =
        std::max(largest_manifest,
                 fs::file_size(store.manifest_path(s.checkpoint_seq())));
  }
  ASSERT_TRUE(s.idle());
  const std::uint64_t writes =
      s.metrics().counter_value("serve.checkpoint.writes");
  ASSERT_GT(writes, 20u);
  ASSERT_EQ(writes, s.checkpoint_seq());
  std::uintmax_t segments = 0;
  for (std::uint64_t seq = 1; seq <= s.checkpoint_seq(); ++seq) {
    segments += fs::file_size(store.segment_path(seq));
  }
  // Every emitted row is written once; each checkpoint adds one manifest.
  EXPECT_LE(s.metrics().counter_value("serve.checkpoint.bytes"),
            segments + writes * largest_manifest);
  ASSERT_TRUE(s.finalize().ok());
  expect_matches_batch(outcome_of(s), batch);
  fs::remove_all(dir);
  fs::remove_all(ckpt);
}

TEST(Serve, CleanDrainRaisesNoStallWarnings) {
  // Every day is on disk at open(), so no day ever waits on its producer:
  // a day queued behind earlier ones has not stalled, however many ticks
  // pass before its turn comes.
  const auto dir = make_dataset("no_stall", 30);
  for (const std::uint32_t threads : {0u, 4u}) {
    sv::ServeConfig cfg = base_config(dir, threads);
    std::vector<std::string> warns;
    cfg.warn = [&](const std::string& w) { warns.push_back(w); };
    sv::ServeSession s(std::move(cfg));
    ASSERT_TRUE(s.open(false).ok());
    ASSERT_TRUE(s.drain().ok());
    ASSERT_GT(s.ticks(), 30u);
    for (const auto& w : warns) {
      EXPECT_EQ(w.find("watchdog"), std::string::npos) << w;
    }
    const auto& stalled = s.metrics().gauge("serve.sources.stalled");
    EXPECT_EQ(stalled.max(), 0) << threads << " threads";
    EXPECT_EQ(s.quality().days_present, 30u);
  }
  fs::remove_all(dir);
}

TEST(Serve, DrainTraceNamesTheAccountingLayer) {
  // A tick's day parse (stage1.parse) and accounting parse
  // (accounting.ingest) are separate spans, and the accounting span is one
  // per chunk, not one per row.
  const auto dir = make_dataset("acct_span", 6);
  ob::Tracer tracer;
  ob::Tracer::install(&tracer);
  sv::ServeSession s(base_config(dir, 0));
  const bool ok = s.open(false).ok() && s.drain().ok();
  ob::Tracer::install(nullptr);
  ASSERT_TRUE(ok);
  const auto doc = ct::parse_json(tracer.to_chrome_json());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  std::map<std::string, std::uint64_t> spans;
  for (const auto& e : doc.value().at("traceEvents").items()) {
    ++spans[e.at("name").as_string()];
  }
  EXPECT_GT(spans["stage1.parse"], 0u);
  EXPECT_GT(spans["serve.tick"], 0u);
  ASSERT_GT(spans["accounting.ingest"], 0u);
  ASSERT_GT(s.counters().accounting_lines, 2u);
  EXPECT_LT(spans["accounting.ingest"], s.counters().accounting_lines);
  fs::remove_all(dir);
}

namespace {

/// The index, JSON export and markdown report an engine's rows render to.
/// `S` is AnalysisPipeline or ServeSession.
template <typename S>
std::string emitted_bytes(const S& src) {
  const auto& run = src.stage3();
  const auto r = run.results();
  ix::IndexBuildInput in;
  in.periods = run.config().periods;
  in.topo = &run.topo();
  in.errors = &run.rows().errors;
  in.jobs = &run.rows().jobs;
  in.unavailability = &r.availability.intervals;
  const auto idx = ix::serialize_index(in);
  EXPECT_TRUE(idx.ok()) << (idx.ok() ? "" : idx.error().message);
  an::ExportBundle bundle;
  bundle.error_stats = &r.error_stats;
  bundle.job_stats = &r.job_stats;
  bundle.job_impact = &r.job_impact;
  bundle.availability = &r.availability;
  bundle.mttf_h = r.mttf_h;
  return (idx.ok() ? idx.value() : std::string()) + an::to_json(bundle) +
         an::render_markdown_report(run, r, src.counters());
}

}  // namespace

TEST(Serve, InMemoryPipelineAndSessionEmitTheSameBytes) {
  // The traced end-to-end probe times the in-memory pipeline's layers as
  // "analyze"; that stands for gpures-analyze only while both engines turn
  // the same dataset into the same bytes, counters included.
  const auto dir = make_dataset("engine_parity", 12);
  append_raw(day_file(dir, 3), "Jun  4 10:00:00 gpua009 kernel: unknown host\n");
  append_raw(dir / "slurm_accounting.txt", "not|a|row\n");
  const auto m = an::read_manifest(dir);
  ASSERT_TRUE(m.ok());
  const cl::Topology topo(m.value().spec);
  for (const std::uint32_t threads : {0u, 4u}) {
    an::PipelineConfig pcfg;
    pcfg.periods = m.value().periods;
    pcfg.num_threads = threads;
    an::AnalysisPipeline pipe(topo, pcfg);
    gt::feed_pipeline(dir, pipe);
    sv::ServeSession s(gt::analyze_config(dir, an::IngestPolicy::kLenient,
                                          threads));
    ASSERT_TRUE(s.open(false).ok());
    ASSERT_TRUE(s.drain().ok());
    EXPECT_EQ(emitted_bytes(pipe), emitted_bytes(s)) << threads << " threads";
    const auto a = pipe.counters();
    const auto b = s.counters();
    EXPECT_EQ(a.log_lines, b.log_lines);
    EXPECT_EQ(a.unknown_hosts, b.unknown_hosts);
    EXPECT_EQ(a.accounting_errors, b.accounting_errors);
    EXPECT_EQ(a.errors_coalesced, b.errors_coalesced);
    EXPECT_GT(b.unknown_hosts + b.rejected_lines, 0u);
    EXPECT_EQ(b.accounting_errors, 1u);
  }
  fs::remove_all(dir);
}
