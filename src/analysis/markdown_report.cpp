#include "analysis/markdown_report.h"

#include <cstdio>

#include "analysis/mitigation.h"
#include "analysis/reports.h"
#include "analysis/reproduction.h"
#include "analysis/survival.h"
#include "analysis/trends.h"

namespace gpures::analysis {

namespace {

/// Monospace block: the ASCII tables render cleanly inside fenced code.
void section(std::string& out, const std::string& heading,
             const std::string& body) {
  out += "## " + heading + "\n\n```\n" + body;
  if (!body.empty() && body.back() != '\n') out += '\n';
  out += "```\n\n";
}

}  // namespace

std::string render_markdown_report(const Stage3& run, const PipeCounts& c,
                                   const MarkdownReportOptions& opts) {
  std::string out;
  out += "# " + opts.title + "\n\n";

  const auto& periods = run.config().periods;
  const auto& topo = run.topo();
  const auto& errors = run.rows().errors;
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
      jobs.jobs.size(), errors.size());
  out += buf;

  const auto stats = run.error_stats();
  const bool have_jobs = !jobs.jobs.empty();

  if (opts.quality != nullptr) {
    out += opts.quality->to_markdown();
    out += '\n';
  }
  if (opts.include_table1) {
    section(out, "Error counts and MTBE (Table I)", render_table1(stats));
  }
  if (opts.include_findings) {
    section(out, "Headline findings", render_findings(stats));
  }
  if (opts.include_table2 && have_jobs) {
    section(out, "GPU error impact on jobs (Table II)",
            render_table2(run.job_impact()));
  }
  if (opts.include_table3 && have_jobs) {
    section(out, "Job population (Table III)", render_table3(run.job_stats()));
  }
  if (opts.include_fig2) {
    section(out, "Unavailability and availability (Fig. 2)",
            render_fig2(run.availability(), run.mttf_estimate_h()));
  }
  if (opts.include_trends) {
    section(out, "Trends, burstiness, concentration",
            render_trends(errors, periods, run.pool()));
  }
  if (opts.include_survival) {
    section(out, "Survival analysis",
            render_survival(errors, periods, topo.total_gpus(), run.pool()));
  }
  if (opts.include_mitigation && have_jobs) {
    section(out, "Mitigation what-ifs",
            render_mitigation(jobs, errors, run.impact_config(), run.pool()));
  }
  if (opts.include_scorecard) {
    const auto impact = have_jobs ? run.job_impact() : JobImpact{};
    const auto population = have_jobs ? run.job_stats() : JobStats{};
    const auto avail = run.availability();
    const auto card = score_reproduction(
        &stats, have_jobs ? &impact : nullptr,
        have_jobs ? &population : nullptr, &avail, run.mttf_estimate_h());
    section(out, "Reproduction scorecard", card.render());
  }
  return out;
}

}  // namespace gpures::analysis
