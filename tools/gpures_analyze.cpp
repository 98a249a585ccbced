// gpures-analyze: run the analysis pipeline over a dataset directory.
//
//   gpures-analyze --data DIR [--report all|none|table1|table2|table3|fig2|
//                              findings|trends|survival|mitigation]
//                  [--export-csv DIR] [--export-json FILE] [--report-md FILE]
//                  [--coalesce-window SECONDS] [--window SECONDS]
//                  [--node-level] [--threads N]
//                  [--metrics FILE[.prom]] [--trace FILE]
//                  [--telemetry FILE [--telemetry-interval-ms N]]
//                  [--log-json FILE] [--log-level L] [--quiet]
//
// The dataset can come from gpures-simulate or from a site's own logs laid
// out in the same format (see src/analysis/dataset.h).  This is the
// command-line face of the paper's Fig. 1 pipeline: it drains the dataset
// through a serve::ServeSession (no checkpoints, strict policy by default)
// exactly as `gpures-serve --once` does, then emits from the session.
//
// stdout carries the reports only; progress and ingest summaries go to
// stderr, observability artifacts to the requested files.  Metrics and
// tracing never change the analysis output (see tests/test_obs_differential).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "analysis/data_quality.h"
#include "analysis/markdown_report.h"
#include "common/io.h"
#include "common/strings.h"
#include "emit.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/serve.h"
#include "simd/dispatch.h"

using namespace gpures;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gpures-analyze --data DIR [options]\n"
      "  --data DIR             dataset directory (required)\n"
      "  --report WHAT          all|none|table1|table2|table3|fig2|findings|\n"
      "                         trends|survival|mitigation   (default all)\n"
      "  --export-csv DIR       write table1..3 + fig2 CSV files (plus a\n"
      "                         run_manifest.json provenance record)\n"
      "  --export-json FILE     write everything as one JSON document\n"
      "  --report-md FILE       write a self-contained markdown report\n"
      "  --coalesce-window S    Stage II window (default 30)\n"
      "  --window S             job-failure attribution window (default 20)\n"
      "  --node-level           node-level attribution (default: device)\n"
      "  --threads N            Stage I/II worker threads (0 = serial;\n"
      "                         output is byte-identical either way)\n"
      "  --simd B               Stage-I scan backend: auto|scalar|swar|avx2\n"
      "                         (default auto; every backend is\n"
      "                         byte-identical, only speed differs; an\n"
      "                         unavailable backend is a hard error)\n"
      "  --simd-info            print the dispatch decision and available\n"
      "                         backends, then exit\n"
      "  --write-index FILE     write the binary error index (gpures.idx)\n"
      "                         for gpures-query; deterministic across\n"
      "                         --threads\n"
      "  --metrics FILE         write the metrics registry snapshot; a\n"
      "                         .prom suffix selects Prometheus text\n"
      "                         exposition instead of JSON\n"
      "  --trace FILE           write a Chrome Trace Event JSON timeline\n"
      "  --telemetry FILE       sample metrics + process stats to JSONL\n"
      "                         while the run is in flight\n"
      "  --telemetry-interval-ms N\n"
      "                         sampling interval (default 1000)\n"
      "  --log-json FILE        mirror log records to FILE as JSONL\n"
      "  --log-level L          debug|info|warn|error (default info)\n"
      "  --ingest-policy P      strict (default): fail on the first corrupt\n"
      "                         input; lenient: quarantine corrupt lines,\n"
      "                         skip unreadable days, and keep going\n"
      "  --error-budget N       lenient: abort if any one file exceeds N\n"
      "                         quarantined lines / rejected rows (0 = off)\n"
      "  --quality-report FILE  write the data-quality accounting as JSON\n"
      "  --chaos-io-fault SPEC  testing: SUBSTRING:BYTES[:KIND[:TIMES]] —\n"
      "                         fail reads of paths containing SUBSTRING\n"
      "                         after BYTES; KIND fail|transient|eintr|\n"
      "                         short-read (see common/io.h)\n"
      "  --quiet                suppress progress and summaries on stderr\n");
}

/// Strict non-negative integer for CLI values.  std::atoll would silently
/// turn a typo like "5oo" into 0 — which for --error-budget means
/// "unlimited", quietly disabling the protection — so reject anything that
/// is not entirely digits.
long long parse_count(const char* flag, std::string_view s) {
  const long long v = common::parse_ll(s);
  if (v < 0) {
    std::fprintf(stderr,
                 "gpures-analyze: %s wants a non-negative integer, got '%s'\n",
                 flag, std::string(s).c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  tools::EmitRequest emit;
  emit.component = "analyze";
  std::string trace_file;
  std::string chaos_io_fault;
  std::string telemetry_file;
  long long telemetry_interval_ms = 1000;
  std::string log_json_file;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  bool quiet = false;
  std::string simd_choice;
  bool simd_info = false;
  serve::ServeConfig scfg;
  scfg.policy = analysis::IngestPolicy::kStrict;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gpures-analyze: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--data") {
      scfg.data_dir = next("--data");
    } else if (arg == "--report") {
      emit.report = next("--report");
      if (!analysis::is_report_name(emit.report)) {
        std::fprintf(stderr, "gpures-analyze: unknown --report '%s'\n",
                     emit.report.c_str());
        usage();
        return 2;
      }
    } else if (arg == "--export-csv") {
      emit.csv_dir = next("--export-csv");
    } else if (arg == "--export-json") {
      emit.json_file = next("--export-json");
    } else if (arg == "--report-md") {
      emit.md_file = next("--report-md");
    } else if (arg == "--coalesce-window") {
      scfg.coalescer.window =
          parse_count("--coalesce-window", next("--coalesce-window"));
    } else if (arg == "--window") {
      scfg.attribution_window = parse_count("--window", next("--window"));
    } else if (arg == "--node-level") {
      scfg.attribution = analysis::Attribution::kNodeLevel;
    } else if (arg == "--threads") {
      const long long n = parse_count("--threads", next("--threads"));
      if (n > 256) {
        std::fprintf(stderr, "gpures-analyze: --threads must be in [0, 256]\n");
        return 2;
      }
      scfg.threads = static_cast<std::uint32_t>(n);
    } else if (arg == "--simd") {
      simd_choice = next("--simd");
    } else if (arg == "--simd-info") {
      simd_info = true;
    } else if (arg == "--write-index") {
      emit.index_file = next("--write-index");
    } else if (arg == "--metrics") {
      emit.metrics_file = next("--metrics");
    } else if (arg == "--trace") {
      trace_file = next("--trace");
    } else if (arg == "--telemetry") {
      telemetry_file = next("--telemetry");
    } else if (arg == "--telemetry-interval-ms") {
      telemetry_interval_ms = parse_count("--telemetry-interval-ms",
                                          next("--telemetry-interval-ms"));
      if (telemetry_interval_ms == 0) {
        std::fprintf(stderr,
                     "gpures-analyze: --telemetry-interval-ms must be >= 1\n");
        return 2;
      }
    } else if (arg == "--log-json") {
      log_json_file = next("--log-json");
    } else if (arg == "--log-level") {
      const auto lvl = obs::parse_log_level(next("--log-level"));
      if (!lvl) {
        std::fprintf(stderr,
                     "gpures-analyze: --log-level must be debug|info|warn|"
                     "error\n");
        return 2;
      }
      log_level = *lvl;
    } else if (arg == "--ingest-policy") {
      const auto p = analysis::parse_ingest_policy(next("--ingest-policy"));
      if (!p) {
        std::fprintf(stderr,
                     "gpures-analyze: --ingest-policy must be strict or "
                     "lenient\n");
        return 2;
      }
      scfg.policy = *p;
    } else if (arg == "--error-budget") {
      scfg.error_budget = static_cast<std::uint64_t>(
          parse_count("--error-budget", next("--error-budget")));
    } else if (arg == "--quality-report") {
      emit.quality_file = next("--quality-report");
    } else if (arg == "--chaos-io-fault") {
      chaos_io_fault = next("--chaos-io-fault");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--progress") {
      quiet = false;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "gpures-analyze: unknown argument '%s'\n",
                   arg.c_str());
      usage();
      return 2;
    }
  }
  // --simd (CLI) beats GPURES_SIMD (environment) beats auto-detection.  The
  // library degrades a bad environment value to auto, but an explicit CLI
  // request for an unavailable backend is a hard usage error.
  if (!simd_choice.empty()) {
    const auto backend = simd::parse_backend(simd_choice);
    if (!backend) {
      std::fprintf(stderr,
                   "gpures-analyze: --simd must be auto|scalar|swar|avx2\n");
      return 2;
    }
    if (!simd::set_active(*backend)) {
      std::fprintf(stderr,
                   "gpures-analyze: --simd %s: backend not available on this "
                   "host\n",
                   simd_choice.c_str());
      return 2;
    }
  }
  if (simd_info) {
    // Machine-readable dispatch probe for CI matrix legs: which backend the
    // dispatcher resolved to (after --simd / GPURES_SIMD) and which the
    // host can run at all.
    std::printf("active %s\n",
                std::string(simd::to_string(simd::active())).c_str());
    std::printf("available");
    for (const auto b : simd::all_available()) {
      std::printf(" %s", std::string(simd::to_string(b)).c_str());
    }
    std::printf("\n");
    return 0;
  }
  if (scfg.data_dir.empty()) {
    usage();
    return 2;
  }

  // Structured logging for everything past flag parsing.  --quiet keeps the
  // text sink but raises the bar to errors; a JSONL sink, when requested,
  // records every level regardless.
  obs::Logger::Options log_opts;
  log_opts.min_level = log_level;
  if (quiet) log_opts.text_min_level = obs::LogLevel::kError;
  log_opts.jsonl_path = log_json_file;
  log_opts.max_per_key = 100;
  obs::Logger logger(log_opts);
  obs::Logger::install(&logger);
  auto& log = obs::Logger::current();
  if (!logger.sink_status().ok()) {
    std::fprintf(stderr, "gpures-analyze: %s\n",
                 logger.sink_status().error().message.c_str());
    return 1;
  }

  obs::MetricsRegistry registry;
  scfg.metrics = &registry;
  // Always wired: the logger's min_level (error under --quiet) decides
  // whether a warning reaches the text sink, and the JSONL sink keeps the
  // record either way.
  scfg.warn = [&log](const std::string& msg) { log.warn("ingest", msg); };
  obs::Tracer tracer;
  if (!trace_file.empty()) obs::Tracer::install(&tracer);

  // Live telemetry: background sampling of this registry + /proc/self into
  // a JSONL sidecar.  Strictly an observer — golden-compared artifacts are
  // byte-identical with the sampler on or off at any interval.
  obs::TelemetrySampler::Options topts;
  topts.path = telemetry_file;
  topts.interval = std::chrono::milliseconds(telemetry_interval_ms);
  topts.registry = &registry;
  obs::TelemetrySampler telemetry(topts);
  if (!telemetry_file.empty()) {
    const auto st = telemetry.start();
    if (!st.ok()) {
      log.error("analyze", st.error().message);
      return 1;
    }
  }

  obs::RunManifest run;
  run.tool = "gpures-analyze";
  run.dataset = scfg.data_dir.string();
  run.threads = scfg.threads;
  run.started_at = obs::wall_clock_iso();
  // Record the resolved scan backend in the provenance manifest and the log:
  // artifacts are byte-identical across backends, but a throughput anomaly
  // should be attributable to the dispatch decision after the fact.
  const auto simd_backend = std::string(simd::to_string(simd::active()));
  run.extra.emplace_back("simd_backend", simd_backend);
  log.info("analyze", "simd dispatch",
           {{"backend", simd_backend},
            {"avx2_available",
             simd::available(simd::Backend::kAvx2) ? "true" : "false"}});

  common::IoFaultPlan fault_plan;
  if (!chaos_io_fault.empty()) {
    auto parsed = common::parse_io_fault_spec(chaos_io_fault);
    if (!parsed.ok()) {
      std::fprintf(stderr, "gpures-analyze: --chaos-io-fault: %s\n",
                   parsed.error().message.c_str());
      return 2;
    }
    fault_plan = std::move(parsed).take();
    common::set_io_fault_plan(&fault_plan);
  }

  const auto policy = scfg.policy;
  serve::ServeSession session(std::move(scfg));
  obs::ProgressReporter progress("ingesting day", !quiet);
  auto st = session.open(false);
  if (st.ok()) st = session.drain(&progress);
  progress.finish();
  common::set_io_fault_plan(nullptr);
  if (!st.ok()) {
    obs::Tracer::install(nullptr);
    log.error("analyze", st.error().message);
    return 1;
  }

  // The session's hash covers every analysis-relevant setting, the ingest
  // policy and error budget included (threads excluded: output does not
  // depend on them).
  run.config_hash = obs::hex64(session.config_hash());
  // Surface the ingest accounting on the observability plane: headline
  // figures in the run manifest (emit_results adds the ingest.* counters).
  const auto& quality = session.quality();
  run.extra.emplace_back("ingest_policy",
                         std::string(analysis::to_string(policy)));
  run.extra.emplace_back("ingest_clean", quality.clean() ? "true" : "false");
  run.extra.emplace_back("lines_quarantined",
                         std::to_string(quality.quarantined_lines()));
  const auto c = session.counters();
  log.info("analyze", "ingest complete",
           {{"day_files", quality.days_present},
            {"lines", c.log_lines},
            {"xid_records", c.xid_records},
            {"lifecycle_records", c.lifecycle_records},
            {"jobs", session.jobs().jobs.size()},
            {"accounting_errors", c.accounting_errors}});

  if (!tools::emit_results(session, emit, registry, &run)) return 1;

  obs::Tracer::install(nullptr);
  run.finished_at = obs::wall_clock_iso();
  run.extra.emplace_back("day_files", std::to_string(quality.days_present));
  run.extra.emplace_back("errors", std::to_string(session.errors().size()));
  run.extra.emplace_back("jobs", std::to_string(session.jobs().jobs.size()));
  if (!emit.csv_dir.empty() &&
      !tools::write_artifact(
          "analyze", std::filesystem::path(emit.csv_dir) / "run_manifest.json",
          run.to_json(&registry))) {
    return 1;
  }
  // Stop sampling before serializing the registry so the telemetry file
  // ends with a "final" sample and the --metrics artifact sees quiescent
  // writers (all snapshot views agree exactly; see obs/metrics.h).
  telemetry.stop();
  if (!tools::emit_metrics(registry, emit)) return 1;
  if (!trace_file.empty() &&
      !tools::write_artifact("analyze", trace_file, tracer.to_chrome_json())) {
    return 1;
  }
  return 0;
}
