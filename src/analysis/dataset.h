// On-disk dataset format: the bridge between the simulator and the analysis
// CLI, and the format a site would drop its *real* logs into to use this
// pipeline on production data.
//
// A dataset directory contains:
//   manifest.txt               key=value: cluster spec, period boundaries
//   syslog/syslog-YYYY-MM-DD.log   one consolidated day file per day
//   slurm_accounting.txt       sacct-style dump (header + one job per line)
//
// `DatasetWriter` materializes a campaign's raw artifacts.  A directory is
// read back by serve::ServeSession (serve/serve.h), the one ingestion path
// behind both gpures-analyze and gpures-serve.
//
// Real logs arrive hostile — truncated, interleaved with garbage, partially
// missing — so ingestion runs under an IngestPolicy: strict fails fast with
// an error naming file/line/byte offset; lenient quarantines corrupt lines,
// skips unreadable days as recorded coverage gaps, enforces a per-file
// error budget, and fills a DataQualityReport accounting for every dropped
// line and byte (see data_quality.h and DESIGN.md "Quarantine semantics").
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/data_quality.h"
#include "analysis/periods.h"
#include "cluster/topology.h"
#include "common/error.h"
#include "logsys/day_buffer.h"
#include "logsys/log_store.h"

namespace gpures::analysis {

/// Dataset metadata persisted in manifest.txt.
struct DatasetManifest {
  std::string name = "gpures-dataset";
  cluster::ClusterSpec spec;
  StudyPeriods periods = StudyPeriods::delta();

  std::string serialize() const;
  /// Parse manifest text.  Rejects malformed lines, unknown and duplicate
  /// keys, bad dates, and a `nodes=` count that disagrees with the `node=`
  /// entries; every error names the offending line.
  static common::Result<DatasetManifest> parse(std::string_view text);
};

/// Writes a dataset directory incrementally (day consumer + accounting).
class DatasetWriter {
 public:
  /// Creates `dir` (and syslog/) if needed; truncates existing files.
  DatasetWriter(std::filesystem::path dir, DatasetManifest manifest);
  ~DatasetWriter();

  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  /// Write one consolidated day file from the arena: the sorted slices'
  /// maximal contiguous runs are gathered into one reused 1 MiB block, so
  /// a day is a few large writes whatever its order.
  void write_day(common::TimePoint day_start, const logsys::DayBuffer& day);

  /// Write one consolidated day file (convenience for tests/fixtures).
  void write_day(common::TimePoint day_start,
                 const std::vector<logsys::RawLine>& lines);

  /// Append one accounting line (header is written automatically first).
  void write_accounting_line(std::string_view line);

  /// Flush and write the manifest.  Called by the destructor too (which
  /// discards the status).  Returns the first write failure since
  /// construction (a full disk mid-dump must not produce a silently
  /// truncated dataset); repeat calls return the same status.
  common::Status finalize();

  const std::filesystem::path& dir() const { return dir_; }
  std::uint64_t days_written() const { return days_; }

 private:
  /// Record the first write failure; finalize() reports it.
  void note_write_failure(const std::string& what);

  std::filesystem::path dir_;
  DatasetManifest manifest_;
  std::ofstream accounting_;  ///< kept open: the dump has ~1.5M lines
  std::string write_error_;   ///< first deferred write failure, if any
  std::string block_;         ///< write_day's gather block, reused per day
  common::Status final_status_;
  std::uint64_t days_ = 0;
  bool finalized_ = false;
};

/// Read manifest.txt from a dataset directory.
common::Result<DatasetManifest> read_manifest(const std::filesystem::path& dir);

/// The date encoded in a day-file name, or nullopt when `filename` is not
/// exactly `syslog-YYYY-MM-DD.log` with a valid calendar date.  Anything
/// else in syslog/ (editor backups, .swp droppings, stray directories) is
/// skipped with a warning, never ingested as a day.
std::optional<common::TimePoint> day_file_date(std::string_view filename);

}  // namespace gpures::analysis
