// Stage III's one results value, the report sections, and the markdown
// report built from them.
#include <gtest/gtest.h>

#include <map>

#include "analysis/export.h"
#include "analysis/markdown_report.h"
#include "analysis/pipeline.h"
#include "common/json.h"
#include "logsys/syslog.h"
#include "obs/trace.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ls = gpures::logsys;
namespace ob = gpures::obs;
namespace sl = gpures::slurm;

namespace {

struct Fixture {
  cl::Topology topo{cl::ClusterSpec::delta_a100()};
  an::AnalysisPipeline pipe;

  Fixture() : pipe(topo, make_config()) {
    const auto day = ct::make_date(2023, 2, 1);
    std::string text;
    for (int i = 0; i < 10; ++i) {
      text += ls::render_xid_line(day + i * 1000, "gpua003", "0000:07:00",
                                  gx::Code::kGspRpcTimeout, "Timeout");
      text += '\n';
    }
    text += ls::render_drain_line(day + 20000, "gpua003") + "\n";
    text += ls::render_resume_line(day + 23000, "gpua003") + "\n";
    pipe.ingest_log_text(day, text);

    sl::JobRecord rec;
    rec.id = 1;
    rec.name = "train_model";
    rec.submit = day;
    rec.start = day + 10;
    rec.end = day + 3600;
    rec.gpus = 1;
    rec.nodes = 1;
    rec.node_list = {2};
    rec.gpu_list = {{2, 0}};
    rec.state = sl::JobState::kCompleted;
    pipe.ingest_accounting_line(sl::to_accounting_line(rec, topo));
    pipe.finish();
  }

  static an::PipelineConfig make_config() {
    an::PipelineConfig cfg;
    cfg.periods = an::StudyPeriods::delta();
    return cfg;
  }
};

}  // namespace

TEST(MarkdownReport, AllSectionsPresent) {
  Fixture f;
  const auto& run = f.pipe.stage3();
  const auto md =
      an::render_markdown_report(run, run.results(), f.pipe.counters());
  EXPECT_TRUE(md.rfind("# GPU resilience characterization", 0) == 0);
  // Every section, in stdout's --report order.
  std::size_t last = 0;
  for (const char* heading :
       {"## Error counts and MTBE (Table I)", "## Headline findings",
        "## GPU error impact on jobs (Table II)",
        "## Job population (Table III)",
        "## Unavailability and availability (Fig. 2)",
        "## Trends, burstiness, concentration", "## Mitigation what-ifs",
        "## Survival analysis"}) {
    const auto at = md.find(heading);
    ASSERT_NE(at, std::string::npos) << heading;
    EXPECT_GT(at, last) << heading;
    last = at;
  }
  // Fenced code blocks are balanced.
  int fences = 0;
  for (std::size_t p = md.find("```"); p != std::string::npos;
       p = md.find("```", p + 3)) {
    ++fences;
  }
  EXPECT_EQ(fences % 2, 0);
  EXPECT_GE(fences, 16);
}

TEST(MarkdownReport, JobSectionsSkippedWithoutJobs) {
  cl::Topology topo{cl::ClusterSpec::delta_a100()};
  an::AnalysisPipeline pipe(topo, Fixture::make_config());
  pipe.ingest_log_text(
      ct::make_date(2023, 2, 1),
      ls::render_xid_line(ct::make_date(2023, 2, 1) + 10, "gpua001",
                          "0000:07:00", gx::Code::kMmuError, "x") +
          "\n");
  pipe.finish();
  const auto& run = pipe.stage3();
  const auto md =
      an::render_markdown_report(run, run.results(), pipe.counters());
  EXPECT_EQ(md.find("Table II"), std::string::npos);
  EXPECT_EQ(md.find("Table III"), std::string::npos);
  EXPECT_EQ(md.find("Mitigation"), std::string::npos);
  EXPECT_NE(md.find("Table I"), std::string::npos);
}

TEST(MarkdownReport, ReportNamesAreTheSectionsAllAndNone) {
  for (const auto& s : an::report_sections()) {
    EXPECT_TRUE(an::is_report_name(s.name)) << s.name;
  }
  EXPECT_TRUE(an::is_report_name("all"));
  EXPECT_TRUE(an::is_report_name("none"));
  EXPECT_FALSE(an::is_report_name("bogus"));
  EXPECT_FALSE(an::is_report_name(""));
  EXPECT_FALSE(an::is_report_name("Table1"));
}

TEST(Stage3, ResultsRunEachStageOnceAndMatchTheAccessors) {
  Fixture f;
  const auto& run = f.pipe.stage3();
  ob::Tracer tracer;
  ob::Tracer::install(&tracer);
  const auto r = run.results();
  ob::Tracer::install(nullptr);
  const auto doc = ct::parse_json(tracer.to_chrome_json());
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  std::map<std::string, int> spans;
  for (const auto& e : doc.value().at("traceEvents").items()) {
    ++spans[e.at("name").as_string()];
  }
  for (const char* span : {"stage3.error_stats", "stage3.job_impact",
                           "stage3.job_stats", "stage3.availability"}) {
    EXPECT_EQ(spans[span], 1) << span;
  }
  EXPECT_EQ(r.mttf_h, f.pipe.mttf_estimate_h());

  const auto stats = f.pipe.error_stats();
  const auto impact = f.pipe.job_impact();
  const auto jobs = f.pipe.job_stats();
  const auto avail = f.pipe.availability();
  an::ExportBundle one{&r.error_stats, &r.job_stats, &r.job_impact,
                       &r.availability, r.mttf_h};
  an::ExportBundle each{&stats, &jobs, &impact, &avail,
                        f.pipe.mttf_estimate_h()};
  EXPECT_EQ(an::to_json(one), an::to_json(each));
}
