// The report sections a run renders, and the markdown report built from
// them: one self-contained document with every table, figure series,
// finding, and extension analysis a run produced — the artifact a
// reliability team would attach to a quarterly review.  The
// `gpures-analyze --report-md FILE` flag writes it; `--report NAME` prints
// the same sections on stdout.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "analysis/data_quality.h"
#include "analysis/stages.h"

namespace gpures::analysis {

/// One report of a run, rendered from its Stage-III results.
struct ReportSection {
  const char* name;     ///< the `--report` value that selects it
  const char* heading;  ///< its markdown heading
  bool needs_jobs;      ///< skipped when the run has no jobs
  std::string (*render)(const Stage3& run, const Stage3Results& results);
};

/// Every section, in report order (stdout and markdown alike).
std::span<const ReportSection> report_sections();

/// Whether `report` is a valid `--report` value: a section name, `all` or
/// `none`.
bool is_report_name(std::string_view report);

/// Render the full report from a finished run: every section over its
/// Stage-III results, and the Stage-I/II counts of what it ingested.  When
/// `quality` is non-null, a "Data quality" section describing what
/// ingestion dropped or quarantined comes first (readers must know how much
/// of the input the numbers below actually saw).
std::string render_markdown_report(const Stage3& run,
                                   const Stage3Results& results,
                                   const PipeCounts& c,
                                   const DataQualityReport* quality = nullptr);

}  // namespace gpures::analysis
