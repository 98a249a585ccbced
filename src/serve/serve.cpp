#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/hash.h"
#include "common/io.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace gpures::serve {

namespace fs = std::filesystem;

namespace {

/// A listing trusts an unchanged syslog/ mtime only once that mtime is this
/// much older than the listing's start (git's racy-clean rule): a change in
/// the same coarse timestamp granule as the listing would not move it.
constexpr auto kRacyWindow = std::chrono::seconds(2);

std::uint64_t count_newlines(std::string_view text) {
  std::uint64_t n = 0;
  for (const char c : text) {
    if (c == '\n') ++n;
  }
  return n;
}

}  // namespace

/// One tailed day file.  The persistent slice is mirrored in
/// SourceSnapshot; `at_eof` is transient (re-derived by the next read).
struct ServeSession::Source {
  std::string name;
  std::string path;
  common::TimePoint date = 0;
  std::uint64_t offset = 0;
  std::uint64_t lines_seen = 0;
  bool existed = false;
  bool sealed = false;
  bool degraded = false;
  bool recovered = false;
  std::string degrade_reason;
  std::uint64_t last_progress_tick = 0;
  common::TimePoint last_event = 0;
  logsys::ScreenCounts counts;
  bool at_eof = false;  ///< last read saw EOF (not checkpointed)
  bool stalled = false; ///< watchdog latch, to warn once per stall
};

struct ServeSession::Metrics {
  obs::Counter* ticks = nullptr;
  obs::Counter* chunks = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* dropped_torn = nullptr;
  obs::Counter* dropped_binary = nullptr;
  obs::Counter* dropped_overlong = nullptr;
  obs::Counter* retry_attempts = nullptr;
  obs::Counter* retry_recovered = nullptr;
  obs::Counter* retry_exhausted = nullptr;
  obs::Counter* degraded_total = nullptr;
  obs::Counter* rescans = nullptr;
  obs::Counter* ckpt_writes = nullptr;
  obs::Counter* ckpt_bytes = nullptr;
  obs::Counter* ckpt_failures = nullptr;
  obs::Gauge* sources_total = nullptr;
  obs::Gauge* sources_sealed = nullptr;
  obs::Gauge* sources_degraded = nullptr;
  obs::Gauge* sources_stalled = nullptr;
  obs::Gauge* watermark_epoch = nullptr;
  obs::Gauge* ckpt_age_ticks = nullptr;
  obs::Gauge* ckpt_last_seq = nullptr;
  obs::Gauge* ckpt_interval_ticks = nullptr;
  obs::Gauge* lag_bytes = nullptr;
};

ServeSession::ServeSession(ServeConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.metrics != nullptr) {
    metrics_ = cfg_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_ = std::make_unique<Metrics>();
  auto& reg = *metrics_;
  m_->ticks = &reg.counter("serve.ticks");
  m_->chunks = &reg.counter("serve.chunks");
  m_->bytes = &reg.counter("serve.bytes_ingested");
  reg.describe("ingest.lines_dropped",
               "Raw log lines quarantined by the ingest screen, by reason",
               "lines");
  m_->dropped_torn = &reg.counter("ingest.lines_dropped", {{"reason", "torn"}});
  m_->dropped_binary =
      &reg.counter("ingest.lines_dropped", {{"reason", "binary"}});
  m_->dropped_overlong =
      &reg.counter("ingest.lines_dropped", {{"reason", "overlong"}});
  m_->retry_attempts = &reg.counter("serve.retry.attempts");
  m_->retry_recovered = &reg.counter("serve.retry.recovered");
  m_->retry_exhausted = &reg.counter("serve.retry.exhausted");
  m_->degraded_total = &reg.counter("serve.sources.degraded_total");
  m_->rescans = &reg.counter("serve.sources.rescans");
  m_->ckpt_writes = &reg.counter("serve.checkpoint.writes");
  m_->ckpt_bytes = &reg.counter("serve.checkpoint.bytes");
  m_->ckpt_failures = &reg.counter("serve.checkpoint.failures");
  m_->sources_total = &reg.gauge("serve.sources.total");
  m_->sources_sealed = &reg.gauge("serve.sources.sealed");
  m_->sources_degraded = &reg.gauge("serve.sources.degraded");
  m_->sources_stalled = &reg.gauge("serve.sources.stalled");
  m_->watermark_epoch = &reg.gauge("serve.watermark_epoch");
  m_->ckpt_age_ticks = &reg.gauge("serve.checkpoint.age_ticks");
  m_->ckpt_last_seq = &reg.gauge("serve.checkpoint.last_seq");
  m_->ckpt_interval_ticks = &reg.gauge("serve.checkpoint.interval_ticks");
  m_->lag_bytes = &reg.gauge("serve.frontier.lag_bytes");
}

ServeSession::~ServeSession() = default;

std::uint64_t ServeSession::config_hash() const {
  std::string s = "serve-ckpt-v1;";
  s += "coalesce_window=" + std::to_string(cfg_.coalescer.window) + ";";
  s += "filter=" + std::to_string(cfg_.coalescer.filter_to_catalog ? 1 : 0) +
       ";";
  s += "merge=" + std::to_string(cfg_.coalescer.merge_families ? 1 : 0) + ";";
  s += "attribution_window=" + std::to_string(cfg_.attribution_window) + ";";
  s += "attribution=" + std::to_string(static_cast<int>(cfg_.attribution)) +
       ";";
  s += "outlier_share=" + std::to_string(cfg_.outlier_share) + ";";
  s += "outlier_min=" + std::to_string(cfg_.outlier_min) + ";";
  s += "policy=" + std::to_string(static_cast<int>(cfg_.policy)) + ";";
  s += "error_budget=" + std::to_string(cfg_.error_budget) + ";";
  s += "max_line_len=" + std::to_string(cfg_.screen.max_line_len) + ";";
  s += "pre=" + std::to_string(periods_.pre.begin) + "," +
       std::to_string(periods_.pre.end) + ";";
  s += "op=" + std::to_string(periods_.op.begin) + "," +
       std::to_string(periods_.op.end) + ";";
  s += "nodes=" + std::to_string(topo_ ? topo_->node_count() : 0) + ";";
  s += "gpus=" + std::to_string(topo_ ? topo_->total_gpus() : 0);
  return common::xxhash64(s);
}

std::uint64_t ServeSession::degraded_count() const {
  return n_degraded_ + (acct_.degraded ? 1 : 0);
}

common::Status ServeSession::open(bool resume) {
  OBS_SPAN("serve.open");
  common::check(!opened_, "ServeSession: open() called twice");
  const auto manifest = analysis::read_manifest(cfg_.data_dir);
  if (!manifest.ok()) return manifest.error();
  periods_ = manifest.value().periods;
  topo_ = std::make_unique<cluster::Topology>(manifest.value().spec);
  analysis::PipelineConfig pcfg;
  pcfg.periods = periods_;
  pcfg.coalescer = cfg_.coalescer;
  pcfg.outlier_share = cfg_.outlier_share;
  pcfg.outlier_min = cfg_.outlier_min;
  pcfg.attribution_window = cfg_.attribution_window;
  pcfg.attribution = cfg_.attribution;
  pcfg.num_threads = cfg_.threads;
  pcfg.metrics = metrics_;
  pipe_ = std::make_unique<analysis::AnalysisPipeline>(*topo_, pcfg);

  syslog_dir_ = cfg_.data_dir / "syslog";
  acct_path_ = (cfg_.data_dir / "slurm_accounting.txt").string();
  if (!fs::is_directory(syslog_dir_)) {
    return common::Error::make("dataset: missing syslog/ in " +
                               cfg_.data_dir.string());
  }
  if (!cfg_.checkpoint_dir.empty()) {
    std::error_code ec;
    fs::create_directories(cfg_.checkpoint_dir, ec);
    if (ec) {
      return common::Error::make("serve: cannot create checkpoint dir " +
                                 cfg_.checkpoint_dir.string() + ": " +
                                 ec.message());
    }
    store_ = std::make_unique<CheckpointStore>(cfg_.checkpoint_dir);
    m_->ckpt_interval_ticks->set(
        static_cast<std::int64_t>(cfg_.checkpoint_interval));
  }

  opened_ = true;
  if (resume && store_ != nullptr) {
    auto loaded = store_->load_latest(cfg_.warn);
    if (!loaded.ok()) return loaded.error();
    if (loaded.value().has_value()) {
      auto& ckpt = *loaded.value();
      if (ckpt.manifest.config_hash != config_hash()) {
        return common::Error::make(
            "serve: checkpoint was written under a different configuration; "
            "refusing to resume (delete the checkpoint dir or rerun with the "
            "original flags)");
      }
      restore(std::move(ckpt));
      if (cfg_.warn) {
        cfg_.warn("resumed from checkpoint seq " + std::to_string(seq_) +
                  " at tick " + std::to_string(tick_));
      }
    }
  }
  return scan_sources();
}

common::Status ServeSession::scan_sources() {
  // Appends to a day file never touch the directory's mtime; creates,
  // renames and removals always do.  So an unchanged, settled mtime means
  // the last listing still holds.  The reprobe cadence forces a listing as
  // a backstop against a clock that moves mtimes backwards.
  const auto started = fs::file_time_type::clock::now();
  std::error_code mtime_ec;
  const auto mtime = fs::last_write_time(syslog_dir_, mtime_ec);
  const bool forced =
      !listed_ || mtime_ec ||
      (cfg_.reprobe_ticks > 0 && tick_ % cfg_.reprobe_ticks == 0);
  if (!forced && mtime == listed_mtime_ && listed_at_ - mtime >= kRacyWindow) {
    return {};
  }
  std::error_code ec;
  fs::directory_iterator it(syslog_dir_, ec);
  if (ec) {
    // The directory existed at open(); treat a transient disappearance like
    // any other source hiccup — keep the known sources, note it, move on.
    listed_ = false;
    if (cfg_.warn) {
      cfg_.warn("cannot scan " + syslog_dir_.string() + ": " + ec.message());
    }
    return {};
  }
  m_->rescans->inc();
  listed_ = !mtime_ec;
  listed_mtime_ = mtime;
  listed_at_ = started;
  for (const auto& entry : it) {
    const auto name = entry.path().filename().string();
    const auto date = analysis::day_file_date(name);
    if (!date || !entry.is_regular_file()) {
      const auto pos = std::lower_bound(strays_.begin(), strays_.end(), name);
      if (pos == strays_.end() || *pos != name) {
        strays_.insert(pos, name);
        dirty_ = true;
        if (cfg_.warn) cfg_.warn("ignoring stray entry in syslog/: " + name);
      }
      continue;
    }
    const auto pos = std::lower_bound(
        sources_.begin(), sources_.end(), *date,
        [](const Source& s, common::TimePoint d) { return s.date < d; });
    if (pos != sources_.end() && pos->date == *date) continue;  // known
    Source src;
    src.name = name;
    src.path = entry.path().string();
    src.date = *date;
    src.existed = true;
    src.last_progress_tick = tick_;
    const auto idx = static_cast<std::size_t>(pos - sources_.begin());
    sources_.insert(pos, std::move(src));
    dirty_ = true;
    // The slot has passed once any *later* day has been consumed: ingesting
    // this file now would break the batch-equivalent ordering contract, so
    // it can only be reported.  idx == frontier_ still counts when the
    // displaced frontier source was already partially read.
    bool slot_passed = idx < frontier_;
    for (std::size_t j = idx + 1; !slot_passed && j < sources_.size(); ++j) {
      slot_passed = sources_[j].offset > 0 || sources_[j].sealed;
    }
    if (slot_passed) {
      if (idx < frontier_) ++frontier_;
      degrade(sources_[idx],
              "day file appeared after its ingest slot had passed");
    }
  }
  return {};
}

void ServeSession::degrade(Source& src, const std::string& reason) {
  if (src.degraded) return;
  src.degraded = true;
  ++n_degraded_;
  if (!src.sealed) ++n_settled_;
  src.degrade_reason = reason;
  dirty_ = true;
  m_->degraded_total->inc();
  if (cfg_.warn) {
    cfg_.warn("degrading source " + src.name + ": " + reason +
              " (keeping " + std::to_string(src.offset) +
              " ingested bytes; will re-probe)");
  }
}

void ServeSession::degrade_accounting(const std::string& reason) {
  if (acct_.degraded) return;
  acct_.degraded = true;
  acct_.degrade_reason = reason;
  dirty_ = true;
  m_->degraded_total->inc();
  if (cfg_.warn) {
    cfg_.warn("degrading source slurm_accounting.txt: " + reason +
              " (keeping " + std::to_string(acct_.offset) +
              " ingested bytes; will re-probe)");
  }
}

void ServeSession::reprobe_degraded() {
  const auto probe = [](const std::string& path, std::uint64_t offset) {
    return common::read_file_range(path, offset, 1).ok();
  };
  for (auto& src : sources_) {
    if (!src.degraded || src.recovered) continue;
    if (probe(src.path, src.offset)) {
      src.recovered = true;
      dirty_ = true;
      if (cfg_.warn) {
        cfg_.warn("degraded source " + src.name +
                  " is readable again (its ingest slot has passed; data is "
                  "not re-ingested, only reported)");
      }
    }
  }
  if (acct_.degraded) {
    if (probe(acct_path_, acct_.offset)) {
      // Unlike a day file, the accounting tail has no ordering constraint
      // against other sources — resume it where it left off.
      acct_.degraded = false;
      acct_.degrade_reason.clear();
      dirty_ = true;
      if (cfg_.warn) {
        cfg_.warn("accounting dump is readable again, resuming the tail at "
                  "byte " +
                  std::to_string(acct_.offset));
      }
    }
  }
}

common::Result<std::string> ServeSession::read_with_retry(
    const std::string& path, std::uint64_t offset, std::uint64_t max_bytes) {
  const std::uint32_t max_attempts = std::max(1u, cfg_.retry.max_attempts);
  std::uint64_t backoff = cfg_.retry.backoff_ms;
  std::uint64_t slept = 0;
  for (std::uint32_t attempt = 1;; ++attempt) {
    auto r = common::read_file_range(path, offset, max_bytes);
    if (r.ok()) {
      if (attempt > 1) m_->retry_recovered->inc();
      return r;
    }
    const bool out_of_attempts = attempt >= max_attempts;
    const bool out_of_time =
        cfg_.retry.deadline_ms > 0 && slept >= cfg_.retry.deadline_ms;
    if (out_of_attempts || out_of_time) {
      m_->retry_exhausted->inc();
      return r.error();
    }
    m_->retry_attempts->inc();
    if (cfg_.sleep_ms) {
      cfg_.sleep_ms(backoff);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    slept += backoff;
    backoff = std::min(backoff * 2, cfg_.retry.backoff_max_ms);
  }
}

void ServeSession::advance_frontier(bool stamp) {
  const std::size_t before = frontier_;
  while (frontier_ < sources_.size() &&
         (sources_[frontier_].sealed || sources_[frontier_].degraded)) {
    ++frontier_;
  }
  if (stamp && frontier_ != before && frontier_ < sources_.size()) {
    sources_[frontier_].last_progress_tick = tick_;
  }
}

void ServeSession::seal(Source& src) {
  src.sealed = true;
  ++n_sealed_;
  if (!src.degraded) ++n_settled_;
  dirty_ = true;
  watermark_ = std::max(watermark_, src.date + common::kDay);
  if (cfg_.warn) {
    if (src.counts.quarantined_lines() > 0) {
      cfg_.warn("quarantined " +
                std::to_string(src.counts.quarantined_lines()) +
                " corrupt lines (" +
                std::to_string(src.counts.quarantined_bytes()) + " bytes) in " +
                src.path);
    }
    if (src.counts.crlf_bytes > 0) {
      cfg_.warn("normalized " + std::to_string(src.counts.crlf_bytes) +
                " CRLF line terminators in " + src.path);
    }
  }
}

common::Status ServeSession::pump_frontier(bool drain) {
  advance_frontier();
  if (frontier_ >= sources_.size()) return {};
  Source& src = sources_[frontier_];
  // Grow the read until it holds a newline or reaches EOF: a single line
  // longer than max_chunk_bytes (quarantined as overlong later) must not
  // wedge the frontier.
  std::uint64_t max = cfg_.max_chunk_bytes;
  std::string chunk;
  bool at_end = false;
  while (true) {
    auto r = read_with_retry(src.path, src.offset, max);
    if (!r.ok()) {
      if (cfg_.policy == analysis::IngestPolicy::kStrict) {
        return common::Error::make("dataset: cannot read " + src.path + ": " +
                                   r.error().message);
      }
      degrade(src, r.error().message);
      return {};
    }
    chunk = std::move(r).take();
    at_end = chunk.size() < max;
    if (at_end || chunk.find('\n') != std::string::npos) break;
    max *= 2;
  }
  m_->chunks->inc();
  const bool later_exists = frontier_ + 1 < sources_.size();
  if (chunk.empty()) {
    src.at_eof = true;
    if (later_exists || drain) {
      seal(src);
      advance_frontier();
    }
    return {};
  }
  const auto nl = chunk.rfind('\n');
  if (nl == std::string::npos) {
    // A newline-less tail.  While the file can still be mid-append, leave
    // it for the next tick; once it is rotation-final (a later day exists
    // and it stopped growing) or we are draining, it is a torn fragment.
    src.at_eof = at_end;
    const bool rotation_final =
        later_exists && tick_ >= src.last_progress_tick + cfg_.stall_ticks;
    if (at_end && (drain || rotation_final)) {
      auto st = consume_day_text(src, std::move(chunk), true);
      if (!st.ok()) return st;
      seal(src);
      advance_frontier();
    }
    return {};
  }
  const bool tail_remains = nl + 1 < chunk.size();
  chunk.resize(nl + 1);
  auto st = consume_day_text(src, std::move(chunk), false);
  if (!st.ok()) return st;
  src.last_progress_tick = tick_;
  src.stalled = false;
  if (at_end && !tail_remains) {
    src.at_eof = true;
    if (later_exists || drain) {
      seal(src);
      advance_frontier();
    }
  } else {
    src.at_eof = false;
  }
  return {};
}

common::Status ServeSession::consume_day_text(Source& src, std::string&& text,
                                              bool torn_tail) {
  const std::uint64_t base_offset = src.offset;
  const std::uint64_t base_lines = src.lines_seen;
  const std::uint64_t n_bytes = text.size();
  const std::uint64_t n_lines = count_newlines(text) + (torn_tail ? 1 : 0);
  logsys::ScreenCounts sc;
  auto day =
      logsys::DayBuffer::from_text(src.date, std::move(text), cfg_.screen, sc);
  if (sc.torn_lines > 0) m_->dropped_torn->add(sc.torn_lines);
  if (sc.binary_lines > 0) m_->dropped_binary->add(sc.binary_lines);
  if (sc.overlong_lines > 0) m_->dropped_overlong->add(sc.overlong_lines);
  if (sc.quarantined_lines() > 0 &&
      cfg_.policy == analysis::IngestPolicy::kStrict) {
    // Chunk-relative offense location + the bytes/lines already consumed =
    // the same absolute location batch strict ingest reports.
    return common::Error::at(
        "dataset: " + std::string(sc.first_category) +
            " line rejected by strict ingest",
        src.path, base_lines + sc.first_line, base_offset + sc.first_offset);
  }
  // Fold the chunk tallies into the source's cumulative counts.
  auto& c = src.counts;
  c.kept_lines += sc.kept_lines;
  c.kept_bytes += sc.kept_bytes;
  c.binary_lines += sc.binary_lines;
  c.binary_bytes += sc.binary_bytes;
  c.overlong_lines += sc.overlong_lines;
  c.overlong_bytes += sc.overlong_bytes;
  c.torn_lines += sc.torn_lines;
  c.torn_bytes += sc.torn_bytes;
  c.crlf_bytes += sc.crlf_bytes;
  if (c.first_category == nullptr && sc.first_category != nullptr) {
    c.first_category = sc.first_category;
    c.first_line = base_lines + sc.first_line;
    c.first_offset = base_offset + sc.first_offset;
  }
  if (cfg_.error_budget > 0 && c.quarantined_lines() > cfg_.error_budget) {
    return common::Error::make(
        "dataset: per-day error budget exceeded: " +
        std::to_string(c.quarantined_lines()) + " quarantined lines in " +
        src.path + " (budget " + std::to_string(cfg_.error_budget) + ")");
  }
  src.offset += n_bytes;
  src.lines_seen += n_lines;
  dirty_ = true;
  m_->bytes->add(n_bytes);

  const auto latest = pipe_->ingest_day(src.date, day);
  watermark_ = std::max(watermark_, latest);
  src.last_event = std::max(src.last_event, latest);
  return {};
}

common::Status ServeSession::pump_accounting(bool drain) {
  if (acct_.degraded) return {};
  std::error_code ec;
  if (!fs::exists(acct_path_, ec)) {
    // Absent is a coverage gap, not an error, under either policy.
    acct_at_eof_ = true;
    return {};
  }
  if (!acct_.seen) {
    acct_.seen = true;
    dirty_ = true;
  }
  std::uint64_t max = cfg_.max_chunk_bytes;
  std::string chunk;
  bool at_end = false;
  while (true) {
    auto r = read_with_retry(acct_path_, acct_.offset, max);
    if (!r.ok()) {
      if (cfg_.policy == analysis::IngestPolicy::kStrict) {
        return common::Error::make("dataset: " + r.error().message);
      }
      degrade_accounting(r.error().message);
      return {};
    }
    chunk = std::move(r).take();
    at_end = chunk.size() < max;
    if (at_end || chunk.find('\n') != std::string::npos) break;
    max *= 2;
  }
  m_->chunks->inc();
  if (chunk.empty()) {
    acct_at_eof_ = true;
    return {};
  }
  const auto nl = chunk.rfind('\n');
  if (nl == std::string::npos) {
    acct_at_eof_ = at_end;
    if (drain && at_end) {
      // Final unterminated row: processed like any other.
      return consume_accounting_text(std::move(chunk));
    }
    return {};
  }
  const bool tail_remains = nl + 1 < chunk.size();
  chunk.resize(nl + 1);
  acct_at_eof_ = at_end && !tail_remains;
  return consume_accounting_text(std::move(chunk));
}

common::Status ServeSession::consume_accounting_text(std::string&& text) {
  OBS_SPAN("accounting.ingest");
  const std::uint64_t base = acct_.offset;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nlpos = text.find('\n', start);
    const std::size_t end = nlpos == std::string::npos ? text.size() : nlpos;
    const auto line = std::string_view(text).substr(start, end - start);
    auto st = accounting_line(line, acct_.line_no + 1, base + start);
    if (!st.ok()) return st;
    acct_.line_no += 1;
    if (nlpos == std::string::npos) break;
    start = nlpos + 1;
  }
  acct_.offset += text.size();
  dirty_ = true;
  m_->bytes->add(text.size());
  return {};
}

common::Status ServeSession::accounting_line(std::string_view line,
                                             std::uint64_t line_no,
                                             std::uint64_t byte_start) {
  switch (pipe_->ingest_accounting(line)) {
    case analysis::AccountingLine::kBlank:
    case analysis::AccountingLine::kHeader:
      return {};
    case analysis::AccountingLine::kJob:
      acct_.rows_kept += 1;
      return {};
    case analysis::AccountingLine::kMalformed:
      break;
  }
  if (cfg_.policy == analysis::IngestPolicy::kStrict) {
    return common::Error::at("dataset: malformed accounting row", acct_path_,
                             line_no, byte_start);
  }
  acct_.rows_rejected += 1;
  acct_.bytes_rejected += common::trim(line).size();
  if (cfg_.error_budget > 0 && acct_.rows_rejected > cfg_.error_budget) {
    return common::Error::make(
        "dataset: accounting error budget exceeded: " +
        std::to_string(acct_.rows_rejected) + " rejected rows in " +
        acct_path_ + " (budget " + std::to_string(cfg_.error_budget) + ")");
  }
  return {};
}

void ServeSession::watchdog_and_gauges() {
  std::int64_t stalled = 0;
  advance_frontier();
  if (frontier_ < sources_.size()) {
    Source& src = sources_[frontier_];
    const bool tail_of_run = frontier_ + 1 >= sources_.size() && src.at_eof;
    if (!tail_of_run &&
        tick_ >= src.last_progress_tick + std::max<std::uint64_t>(
                                              1, cfg_.stall_ticks)) {
      ++stalled;
      if (!src.stalled) {
        src.stalled = true;
        if (cfg_.warn) {
          cfg_.warn("watchdog: source " + src.name +
                    " has not advanced for " +
                    std::to_string(tick_ - src.last_progress_tick) + " ticks");
        }
      }
    }
    std::error_code ec;
    const auto size = fs::file_size(src.path, ec);
    if (!ec && size >= src.offset) {
      m_->lag_bytes->set(static_cast<std::int64_t>(size - src.offset));
    }
  } else {
    m_->lag_bytes->set(0);
  }
  m_->sources_total->set(static_cast<std::int64_t>(sources_.size()));
  m_->sources_sealed->set(static_cast<std::int64_t>(n_sealed_));
  m_->sources_degraded->set(static_cast<std::int64_t>(degraded_count()));
  m_->sources_stalled->set(stalled);
  m_->watermark_epoch->set(watermark_);
  if (store_ != nullptr) {
    m_->ckpt_age_ticks->set(static_cast<std::int64_t>(
        tick_ - std::min(tick_, last_checkpoint_tick_)));
    m_->ckpt_last_seq->set(static_cast<std::int64_t>(seq_));
  }
}

common::Status ServeSession::tick() {
  OBS_SPAN("serve.tick");
  common::check(opened_, "ServeSession: tick() before open()");
  common::check(!finished_, "ServeSession: tick() after finalize()");
  ++tick_;
  m_->ticks->inc();
  if (cfg_.chaos_point) cfg_.chaos_point("tick");
  const std::uint64_t bytes_before = m_->bytes->value();
  const std::size_t sources_before = sources_.size();
  const std::size_t settled_before = n_settled_;

  auto st = scan_sources();
  if (!st.ok()) return st;
  if (cfg_.reprobe_ticks > 0 && tick_ % cfg_.reprobe_ticks == 0) {
    reprobe_degraded();
  }
  st = pump_frontier(false);
  if (!st.ok()) return st;
  st = pump_accounting(false);
  if (!st.ok()) return st;

  const bool progressed = m_->bytes->value() != bytes_before ||
                          sources_.size() != sources_before ||
                          n_settled_ != settled_before;
  advance_frontier();
  bool days_drained = frontier_ >= sources_.size();
  if (!days_drained && frontier_ + 1 >= sources_.size() &&
      sources_[frontier_].at_eof) {
    days_drained = true;  // final day tailed to EOF (fragment, if any, waits)
  }
  idle_ = !progressed && days_drained && (acct_at_eof_ || acct_.degraded);

  watchdog_and_gauges();
  return maybe_checkpoint();
}

common::Status ServeSession::maybe_checkpoint() {
  if (store_ == nullptr) return {};
  const std::uint64_t interval = std::max<std::uint64_t>(
      1, cfg_.checkpoint_interval);
  if (tick_ % interval != 0 || !dirty_) return {};
  return checkpoint_now();
}

common::Status ServeSession::checkpoint_now() {
  if (store_ == nullptr) return {};
  OBS_SPAN("serve.checkpoint");
  // finalize() sorts the emitted rows, so they are no longer append-only.
  common::check(!finished_, "ServeSession: checkpoint_now() after finalize()");
  if (cfg_.chaos_point) cfg_.chaos_point("ckpt-pre");
  // A checkpoint that cannot be written degrades durability, not service:
  // keep ingesting, count it, and let the next cadence try again (it
  // rewrites the same segment with whatever has been emitted since).
  const auto failed = [&](const common::Error& e) {
    m_->ckpt_failures->inc();
    if (cfg_.warn) cfg_.warn("checkpoint write failed: " + e.message);
    return common::Status{};
  };
  const std::uint64_t seq = seq_ + 1;
  auto segment = store_->write_segment(
      seq, SegmentRows::since(pipe_->rows(), persisted_));
  if (!segment.ok()) return failed(segment.error());
  if (cfg_.chaos_point) cfg_.chaos_point("ckpt-seg");
  CheckpointManifest m = snapshot();
  m.seq = seq;
  m.segments.push_back(segment.value());
  const auto manifest_bytes = store_->write_manifest(m);
  if (!manifest_bytes.ok()) return failed(manifest_bytes.error());
  seq_ = seq;
  segments_ = std::move(m.segments);
  persisted_ = m.emitted;
  last_checkpoint_tick_ = tick_;
  dirty_ = false;
  m_->ckpt_writes->inc();
  m_->ckpt_bytes->add(segment.value().bytes + manifest_bytes.value());
  m_->ckpt_last_seq->set(static_cast<std::int64_t>(seq_));
  m_->ckpt_age_ticks->set(0);
  if (cfg_.chaos_point) cfg_.chaos_point("ckpt-post");
  return {};
}

CheckpointManifest ServeSession::snapshot() const {
  CheckpointManifest m;
  m.config_hash = config_hash();
  m.seq = seq_;
  m.tick = tick_;
  m.watermark = watermark_;
  m.sources.reserve(sources_.size());
  for (const auto& src : sources_) {
    m.sources.push_back(SourceSnapshot{
        .name = src.name,
        .date = src.date,
        .offset = src.offset,
        .lines_seen = src.lines_seen,
        .existed = src.existed,
        .sealed = src.sealed,
        .degraded = src.degraded,
        .recovered = src.recovered,
        .degrade_reason = src.degrade_reason,
        .last_progress_tick = src.last_progress_tick,
        .last_event = src.last_event,
        .counts = src.counts,
    });
  }
  m.accounting = acct_;
  m.stray_files = strays_;
  m.coalescer = pipe_->coalescer_state();
  m.emitted = pipe_->rows().counts();
  m.segments = segments_;
  return m;
}

void ServeSession::restore(Checkpoint&& ckpt) {
  auto& data = ckpt.manifest;
  tick_ = data.tick;
  seq_ = data.seq;
  last_checkpoint_tick_ = data.tick;
  watermark_ = data.watermark;
  sources_.clear();
  n_sealed_ = n_degraded_ = n_settled_ = 0;
  for (auto& s : data.sources) {
    Source src;
    src.name = s.name;
    src.path = (syslog_dir_ / s.name).string();
    src.date = s.date;
    src.offset = s.offset;
    src.lines_seen = s.lines_seen;
    src.existed = s.existed;
    src.sealed = s.sealed;
    src.degraded = s.degraded;
    src.recovered = s.recovered;
    src.degrade_reason = std::move(s.degrade_reason);
    src.last_progress_tick = s.last_progress_tick;
    src.last_event = s.last_event;
    src.counts = s.counts;
    n_sealed_ += src.sealed ? 1 : 0;
    n_degraded_ += src.degraded ? 1 : 0;
    n_settled_ += src.sealed || src.degraded ? 1 : 0;
    sources_.push_back(std::move(src));
  }
  frontier_ = 0;
  advance_frontier(false);  // the checkpoint holds each source's stall clock
  acct_ = std::move(data.accounting);
  strays_ = std::move(data.stray_files);
  pipe_->restore(data.coalescer, std::move(ckpt.rows));
  segments_ = std::move(data.segments);
  persisted_ = data.emitted;
  dirty_ = false;
}

common::Status ServeSession::drain(obs::ProgressReporter* progress) {
  while (!idle_) {
    auto st = tick();
    if (!st.ok()) return st;
    if (progress != nullptr) progress->update(n_settled_, sources_.size());
  }
  auto st = checkpoint_now();
  if (st.ok()) st = finalize();
  if (st.ok() && progress != nullptr) {
    progress->update(n_settled_, sources_.size());
  }
  return st;
}

common::Status ServeSession::finalize() {
  OBS_SPAN("serve.finalize");
  common::check(opened_, "ServeSession: finalize() before open()");
  if (finished_) return {};
  // Drain the remaining day bytes in date order (torn EOF fragments are
  // consumed immediately) — every pump either consumes bytes, seals, or
  // degrades, so this terminates.
  while (true) {
    advance_frontier();
    if (frontier_ >= sources_.size()) break;
    auto st = pump_frontier(true);
    if (!st.ok()) return st;
  }
  // Drain the accounting tail the same way.
  while (!acct_.degraded) {
    const std::uint64_t before = acct_.offset;
    auto st = pump_accounting(true);
    if (!st.ok()) return st;
    if (acct_.offset == before) break;  // absent, or tailed to EOF
  }
#ifndef NDEBUG
  {
    std::size_t sealed = 0, degraded = 0, settled = 0;
    for (const auto& src : sources_) {
      sealed += src.sealed ? 1 : 0;
      degraded += src.degraded ? 1 : 0;
      settled += src.sealed || src.degraded ? 1 : 0;
    }
    common::check(sealed == n_sealed_ && degraded == n_degraded_ &&
                      settled == n_settled_,
                  "ServeSession: source tallies differ from a recount");
  }
#endif
  pipe_->finish();
  derive_quality();
  watchdog_and_gauges();
  finished_ = true;
  return {};
}

void ServeSession::derive_quality() {
  auto& q = quality_;
  q = analysis::DataQualityReport{};
  q.policy = cfg_.policy;
  q.error_budget = cfg_.error_budget;
  // Coverage over the manifest period.
  const common::TimePoint begin = periods_.pre.begin;
  const common::TimePoint end = periods_.op.end;
  if (end > begin) {
    std::size_t next = 0;
    for (common::TimePoint t = common::start_of_day(begin); t < end;
         t += common::kDay) {
      q.days_expected += 1;
      while (next < sources_.size() && sources_[next].date < t) ++next;
      if (next >= sources_.size() || sources_[next].date != t) {
        q.missing_days.push_back(common::format_date(t));
      }
    }
  }
  for (const auto& src : sources_) {
    if (src.degraded && src.offset == 0) {
      // Nothing of this day made it in: the batch-lenient equivalent of an
      // unreadable day — a recorded coverage gap.
      q.skipped_days.push_back(analysis::SkippedDay{
          common::format_date(src.date), src.degrade_reason});
    } else {
      q.days_present += 1;
      const auto& c = src.counts;
      q.lines_kept += c.kept_lines;
      q.bytes_kept += c.kept_bytes;
      q.binary_lines += c.binary_lines;
      q.binary_bytes += c.binary_bytes;
      q.overlong_lines += c.overlong_lines;
      q.overlong_bytes += c.overlong_bytes;
      q.torn_lines += c.torn_lines;
      q.torn_bytes += c.torn_bytes;
      q.crlf_bytes += c.crlf_bytes;
      const std::uint64_t file_bytes = src.offset;
      if (file_bytes == 0) q.zero_byte_days += 1;
      if (c.quarantined_lines() > 0 || file_bytes == 0 || c.crlf_bytes > 0) {
        analysis::DayQuality dq;
        dq.date = common::format_date(src.date);
        dq.file_bytes = file_bytes;
        dq.lines_kept = c.kept_lines;
        dq.bytes_kept = c.kept_bytes;
        dq.binary_lines = c.binary_lines;
        dq.binary_bytes = c.binary_bytes;
        dq.overlong_lines = c.overlong_lines;
        dq.overlong_bytes = c.overlong_bytes;
        dq.torn_lines = c.torn_lines;
        dq.torn_bytes = c.torn_bytes;
        dq.crlf_bytes = c.crlf_bytes;
        q.days.push_back(std::move(dq));
      }
    }
    if (src.degraded) {
      q.degraded_sources.push_back(analysis::DegradedSource{
          src.name, src.degrade_reason, src.offset});
    }
  }
  q.stray_files = strays_;
  q.accounting_present = acct_.seen && !(acct_.degraded && acct_.offset == 0);
  if (acct_.degraded) {
    q.accounting_error = acct_.degrade_reason;
    q.degraded_sources.push_back(analysis::DegradedSource{
        "slurm_accounting.txt", acct_.degrade_reason, acct_.offset});
  }
  if (!acct_.seen && cfg_.warn) {
    cfg_.warn("no slurm_accounting.txt in " + cfg_.data_dir.string() +
              ", job analyses will be empty");
  }
  q.accounting_rows_kept = acct_.rows_kept;
  q.accounting_rows_rejected = acct_.rows_rejected;
  q.accounting_bytes_rejected = acct_.bytes_rejected;
}

const analysis::AnalysisPipeline& ServeSession::pipeline() const {
  common::check(pipe_ != nullptr, "ServeSession: results before open()");
  return *pipe_;
}

}  // namespace gpures::serve
