// Markdown report generation: one self-contained document with every table,
// figure series, finding, and extension analysis a run produced — the
// artifact a reliability team would attach to a quarterly review.  The
// `gpures-analyze --report-md FILE` flag writes it.
#pragma once

#include <string>

#include "analysis/data_quality.h"
#include "analysis/stages.h"

namespace gpures::analysis {

struct MarkdownReportOptions {
  std::string title = "GPU resilience characterization";
  /// When non-null, a "Data quality" section describing what ingestion
  /// dropped or quarantined is rendered first (readers must know how much
  /// of the input the numbers below actually saw).
  const DataQualityReport* quality = nullptr;
  bool include_table1 = true;
  bool include_findings = true;
  bool include_table2 = true;       ///< skipped automatically without jobs
  bool include_table3 = true;       ///< skipped automatically without jobs
  bool include_fig2 = true;
  bool include_trends = true;
  bool include_survival = true;
  bool include_mitigation = true;   ///< skipped automatically without jobs
  bool include_scorecard = false;   ///< only meaningful at full Delta scale
};

/// Render the full report from a finished run: Stage III over its rows, and
/// the Stage-I/II counts of what it ingested.  Either engine provides both
/// (`stage3()` and `counters()`).
std::string render_markdown_report(const Stage3& run, const PipeCounts& c,
                                   const MarkdownReportOptions& opts = {});

}  // namespace gpures::analysis
