#include "analysis/markdown_report.h"

#include <cstdio>

#include "analysis/mitigation.h"
#include "analysis/pipeline.h"
#include "analysis/reports.h"
#include "analysis/survival.h"
#include "analysis/trends.h"

namespace gpures::analysis {

namespace {

using R = Stage3Results;

constexpr ReportSection kSections[] = {
    {"table1", "Error counts and MTBE (Table I)", false,
     [](const Stage3&, const R& r) { return render_table1(r.error_stats); }},
    {"findings", "Headline findings", false,
     [](const Stage3&, const R& r) { return render_findings(r.error_stats); }},
    {"table2", "GPU error impact on jobs (Table II)", true,
     [](const Stage3&, const R& r) { return render_table2(r.job_impact); }},
    {"table3", "Job population (Table III)", true,
     [](const Stage3&, const R& r) { return render_table3(r.job_stats); }},
    {"fig2", "Unavailability and availability (Fig. 2)", false,
     [](const Stage3&, const R& r) {
       return render_fig2(r.availability, r.mttf_h);
     }},
    {"trends", "Trends, burstiness, concentration", false,
     [](const Stage3& run, const R&) {
       return render_trends(run.rows().errors, run.config().periods,
                            run.pool());
     }},
    {"mitigation", "Mitigation what-ifs", true,
     [](const Stage3& run, const R&) {
       return render_mitigation(run.rows().jobs, run.rows().errors,
                                run.impact_config(), run.pool());
     }},
    {"survival", "Survival analysis", false,
     [](const Stage3& run, const R&) {
       return render_survival(run.rows().errors, run.config().periods,
                              run.topo().total_gpus(), run.pool());
     }},
};

/// Monospace block: the ASCII tables render cleanly inside fenced code.
void section(std::string& out, const std::string& heading,
             const std::string& body) {
  out += "## " + heading + "\n\n```\n" + body;
  if (!body.empty() && body.back() != '\n') out += '\n';
  out += "```\n\n";
}

}  // namespace

std::span<const ReportSection> report_sections() { return kSections; }

bool is_report_name(std::string_view report) {
  if (report == "all" || report == "none") return true;
  for (const auto& s : kSections) {
    if (report == s.name) return true;
  }
  return false;
}

std::string render_markdown_report(const Stage3& run, const Stage3Results& r,
                                   const PipeCounts& c,
                                   const DataQualityReport* quality) {
  std::string out = "# GPU resilience characterization\n\n";

  const auto& periods = run.config().periods;
  const auto& topo = run.topo();
  const auto& jobs = run.rows().jobs;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "Window: %s .. %s (operational from %s). Cluster: %d nodes / %d GPUs.\n"
      "Ingested %llu log lines (%llu XID records, %llu lifecycle, %llu "
      "rejected) and %zu job records; %zu coalesced errors.\n\n",
      common::format_date(periods.pre.begin).c_str(),
      common::format_date(periods.op.end).c_str(),
      common::format_date(periods.op.begin).c_str(), topo.node_count(),
      topo.total_gpus(), static_cast<unsigned long long>(c.log_lines),
      static_cast<unsigned long long>(c.xid_records),
      static_cast<unsigned long long>(c.lifecycle_records),
      static_cast<unsigned long long>(c.rejected_lines),
      jobs.jobs.size(), run.rows().errors.size());
  out += buf;

  if (quality != nullptr) {
    out += quality->to_markdown();
    out += '\n';
  }
  for (const auto& s : kSections) {
    if (s.needs_jobs && jobs.jobs.empty()) continue;
    section(out, s.heading, s.render(run, r));
  }
  return out;
}

}  // namespace gpures::analysis
