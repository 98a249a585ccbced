// The emit block gpures-analyze and gpures-serve share: everything a
// drained serve::ServeSession turns into output — reports on stdout, CSV
// tables, the markdown report, the binary index, the JSON export, the
// data-quality report, the ingest.* counters and the --metrics snapshot.
// Both tools compile this file, so a dataset gives the same bytes through
// either of them.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "serve/serve.h"

namespace gpures::tools {

/// One checked write path for every artifact: atomic tmp+rename, so a crash
/// mid-emit never leaves a torn file for a reader.  Open, short-write and
/// close failures are logged under `component` and return false.
bool write_artifact(const char* component, const std::filesystem::path& path,
                    std::string_view text);

/// What to emit.  Empty paths are skipped.
struct EmitRequest {
  const char* component = "analyze";  ///< log component of the tool
  /// all, none, or one analysis::report_sections() name
  std::string report = "all";
  std::string csv_dir;  ///< table1..3 + fig2 CSV files
  std::string md_file;
  std::string index_file;
  std::string json_file;
  std::string quality_file;
  std::string metrics_file;  ///< a .prom suffix selects Prometheus text
};

/// Count the session's data quality into the ingest.* counters of
/// `registry`, run Stage III once, print the requested reports from its
/// results, and write the CSV tables, markdown report, index, JSON export
/// and quality report from the same results.  Records the
/// index size in `run` when given.  Returns false after logging the first
/// failed write.
bool emit_results(const serve::ServeSession& session, const EmitRequest& req,
                  obs::MetricsRegistry& registry, obs::RunManifest* run);

/// Write the --metrics snapshot.  Call it once every writer has stopped, so
/// all snapshot views agree.
bool emit_metrics(const obs::MetricsRegistry& registry,
                  const EmitRequest& req);

}  // namespace gpures::tools
