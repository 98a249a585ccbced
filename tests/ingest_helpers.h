// Two ways for a test to read a dataset directory: the way gpures-analyze
// does (a ServeSession drained to the end), and, as an independent
// reference, by feeding whole day files to the in-memory AnalysisPipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "common/io.h"
#include "logsys/day_buffer.h"
#include "serve/serve.h"

namespace gpures::testing {

/// gpures-analyze's ingest over `dir`: no checkpoints, the given policy,
/// budget and worker count.  Retries back off without sleeping.
inline serve::ServeConfig analyze_config(const std::filesystem::path& dir,
                                         analysis::IngestPolicy policy,
                                         std::uint32_t threads = 0,
                                         std::uint64_t error_budget = 0) {
  serve::ServeConfig cfg;
  cfg.data_dir = dir;
  cfg.policy = policy;
  cfg.threads = threads;
  cfg.error_budget = error_budget;
  cfg.sleep_ms = [](std::uint64_t) {};
  return cfg;
}

/// Feed every day file of `dir` in date order (screened as the session
/// screens them, quarantined lines dropped) and then the accounting dump to
/// `pipe`, and finish it.  Unreadable files are skipped.
inline void feed_pipeline(const std::filesystem::path& dir,
                          analysis::AnalysisPipeline& pipe) {
  namespace fs = std::filesystem;
  std::vector<std::pair<common::TimePoint, fs::path>> days;
  for (const auto& e : fs::directory_iterator(dir / "syslog")) {
    const auto date = analysis::day_file_date(e.path().filename().string());
    if (date && e.is_regular_file()) days.emplace_back(*date, e.path());
  }
  std::sort(days.begin(), days.end());
  for (auto& [date, path] : days) {
    auto text = common::read_file(path.string());
    if (!text.ok()) continue;
    logsys::ScreenCounts sc;
    pipe.ingest_day(date, logsys::DayBuffer::from_text(
                              date, std::move(text).take(),
                              logsys::LineScreen{}, sc));
  }
  const auto acct = common::read_file((dir / "slurm_accounting.txt").string());
  if (acct.ok()) {
    const std::string_view text = acct.value();
    std::size_t start = 0;
    while (start < text.size()) {
      const auto nl = text.find('\n', start);
      const auto end = nl == std::string_view::npos ? text.size() : nl;
      pipe.ingest_accounting_line(text.substr(start, end - start));
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
  }
  pipe.finish();
}

}  // namespace gpures::testing
