#include "emit.h"

#include <cstdio>
#include <sstream>

#include "analysis/export.h"
#include "analysis/markdown_report.h"
#include "common/io.h"
#include "index/writer.h"
#include "obs/expfmt.h"
#include "obs/log.h"

namespace gpures::tools {

namespace fs = std::filesystem;

bool write_artifact(const char* component, const fs::path& path,
                    std::string_view text) {
  const auto st = common::write_file_atomic(path.string(), text);
  if (!st.ok()) {
    obs::Logger::current().error(component, "artifact write failed",
                                 {{"path", path.string()},
                                  {"error", st.error().message}});
    return false;
  }
  return true;
}

namespace {

void count_ingest(const analysis::DataQualityReport& q,
                  obs::MetricsRegistry& registry) {
  registry.counter("ingest.lines_kept").add(q.lines_kept);
  registry.counter("ingest.lines_quarantined").add(q.quarantined_lines());
  registry.counter("ingest.bytes_quarantined").add(q.quarantined_bytes());
  registry.counter("ingest.days_missing").add(q.missing_days.size());
  registry.counter("ingest.days_skipped").add(q.skipped_days.size());
  registry.counter("ingest.days_zero_byte").add(q.zero_byte_days);
  registry.counter("ingest.stray_files").add(q.stray_files.size());
  registry.counter("ingest.accounting_rows_rejected")
      .add(q.accounting_rows_rejected);
}

void print_reports(const analysis::Stage3& run,
                   const analysis::Stage3Results& results,
                   const std::string& report) {
  const bool have_jobs = !run.rows().jobs.jobs.empty();
  for (const auto& s : analysis::report_sections()) {
    if (report != "all" && report != s.name) continue;
    if (s.needs_jobs && !have_jobs) continue;
    std::printf("%s\n", s.render(run, results).c_str());
  }
}

}  // namespace

bool emit_results(const serve::ServeSession& session, const EmitRequest& req,
                  obs::MetricsRegistry& registry, obs::RunManifest* run) {
  auto& log = obs::Logger::current();
  const char* who = req.component;
  const auto& s3 = session.stage3();
  const auto& quality = session.quality();
  count_ingest(quality, registry);
  const auto r = s3.results();
  print_reports(s3, r, req.report);

  if (!req.csv_dir.empty()) {
    const auto write_csv = [&](const char* name, auto write,
                               const auto& result) {
      std::ostringstream os;
      write(os, result);
      return write_artifact(who, fs::path(req.csv_dir) / name, os.str());
    };
    const bool ok =
        write_csv("table1.csv", analysis::write_table1_csv, r.error_stats) &&
        write_csv("table2.csv", analysis::write_table2_csv, r.job_impact) &&
        write_csv("table3.csv", analysis::write_table3_csv, r.job_stats) &&
        write_csv("fig2.csv", analysis::write_fig2_csv, r.availability);
    if (!ok) return false;
    log.info(who, "wrote CSV exports", {{"dir", req.csv_dir}});
  }

  if (!req.md_file.empty()) {
    if (!write_artifact(who, req.md_file,
                        analysis::render_markdown_report(
                            s3, r, session.counters(), &quality))) {
      return false;
    }
    log.info(who, "wrote markdown report", {{"path", req.md_file}});
  }

  if (!req.index_file.empty()) {
    const auto& cfg = s3.config();
    index::IndexBuildInput in;
    in.periods = cfg.periods;
    in.attribution_window = cfg.attribution_window;
    in.attribution = cfg.attribution;
    in.outlier_share = cfg.outlier_share;
    in.outlier_min = cfg.outlier_min;
    in.topo = &s3.topo();
    in.errors = &s3.rows().errors;
    in.jobs = &s3.rows().jobs;
    in.unavailability = &r.availability.intervals;
    const auto wrote = index::write_index(in, req.index_file);
    if (!wrote.ok()) {
      log.error(who, wrote.error().message);
      return false;
    }
    const auto& ws = wrote.value();
    log.info(who, "wrote index",
             {{"path", req.index_file},
              {"bytes", ws.bytes},
              {"errors", ws.errors},
              {"jobs", ws.jobs},
              {"unavailability", ws.unavailability}});
    if (run != nullptr) {
      run->extra.emplace_back("index_bytes", std::to_string(ws.bytes));
    }
  }

  if (!req.json_file.empty()) {
    analysis::ExportBundle bundle;
    bundle.error_stats = &r.error_stats;
    bundle.job_stats = &r.job_stats;
    bundle.job_impact = &r.job_impact;
    bundle.availability = &r.availability;
    bundle.mttf_h = r.mttf_h;
    if (!write_artifact(who, req.json_file, analysis::to_json(bundle) + "\n")) {
      return false;
    }
    log.info(who, "wrote JSON export", {{"path", req.json_file}});
  }

  return req.quality_file.empty() ||
         write_artifact(who, req.quality_file, quality.to_json() + "\n");
}

bool emit_metrics(const obs::MetricsRegistry& registry,
                  const EmitRequest& req) {
  return req.metrics_file.empty() ||
         write_artifact(req.component, req.metrics_file,
                        obs::render_metrics_file(registry, req.metrics_file));
}

}  // namespace gpures::tools
