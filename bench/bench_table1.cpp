// Regenerates paper Table I (per-XID error counts and MTBE, pre-operational
// vs operational) and the Section IV headline findings from a full
// 1170-day campaign, printing paper-vs-measured columns.  Also registers
// google-benchmark timings for the Stage II statistics computation.
//
// Jobs are disabled: Table I depends only on the error processes, and the
// cluster-only campaign runs several times faster.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "analysis/campaign.h"
#include "analysis/paper_reference.h"
#include "analysis/reports.h"
#include "analysis/reproduction.h"
#include "analyzed_campaign.h"
#include "common/table.h"

namespace {

using namespace gpures;

std::unique_ptr<bench::AnalyzedCampaign> run_campaign() {
  analysis::CampaignConfig cfg = analysis::CampaignConfig::delta_a100();
  cfg.with_jobs = false;  // Table I is job-independent
  cfg.seed = 1;
  auto campaign = std::make_unique<bench::AnalyzedCampaign>(cfg);
  campaign->run();
  return campaign;
}

void print_comparison(const analysis::ErrorStats& stats) {
  common::AsciiTable t({"Event", "Paper pre", "Ours pre", "Paper op",
                        "Ours op", "Paper op node MTBE(h)", "Ours op node MTBE(h)"});
  for (const auto& ref : paper::kTable1) {
    const auto* row = stats.find(ref.code);
    if (row == nullptr) continue;
    const auto d = xid::describe(ref.code);
    t.add_row({std::string(d->abbrev), common::fmt_int(ref.pre_count),
               common::fmt_int(row->pre.count), common::fmt_int(ref.op_count),
               common::fmt_int(row->op.count),
               ref.op_node_mtbe_h < 0 ? "-" : common::fmt_mtbe(ref.op_node_mtbe_h),
               common::fmt_mtbe(row->op.mtbe_per_node_h)});
  }
  t.add_separator();
  t.add_row({"Uncorrectable ECC (RRE+RRF)",
             common::fmt_int(paper::kTable1Uncorrectable.pre_count),
             common::fmt_int(stats.uncorrectable_ecc.pre.count),
             common::fmt_int(paper::kTable1Uncorrectable.op_count),
             common::fmt_int(stats.uncorrectable_ecc.op.count),
             common::fmt_mtbe(paper::kTable1Uncorrectable.op_node_mtbe_h),
             common::fmt_mtbe(stats.uncorrectable_ecc.op.mtbe_per_node_h)});
  std::printf("%s", t.render().c_str());

  std::printf(
      "\nAggregate per-node MTBE  paper: %.0f h -> %.0f h (-%.0f%%)   "
      "ours: %.0f h -> %.0f h (-%.0f%%)\n",
      paper::kPreNodeMtbeH, paper::kOpNodeMtbeH,
      paper::kMtbeDegradation * 100.0, stats.total.pre.mtbe_per_node_h,
      stats.total.op.mtbe_per_node_h,
      stats.mtbe_degradation_fraction() * 100.0);
  std::printf("Memory vs hardware MTBE ratio (op)  paper: %.0fx   ours: %.0fx\n",
              paper::kMemoryVsHardwareRatio,
              stats.memory_reliability_ratio_op());
  std::printf("GSP MTBE degradation pre->op        paper: %.1fx   ours: %.1fx\n",
              paper::kGspDegradationRatio, stats.gsp_degradation_ratio());
}

// google-benchmark: Stage II statistics over the campaign's ~57k errors.
void BM_ComputeErrorStats(benchmark::State& state) {
  static const auto campaign = run_campaign();
  const auto& errors = campaign->pipeline().errors();
  analysis::ErrorStatsConfig cfg;
  cfg.node_count = 106;
  for (auto _ : state) {
    auto stats = analysis::compute_error_stats(
        errors, campaign->periods(), cfg);
    benchmark::DoNotOptimize(stats.total.op.count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(errors.size()));
}
BENCHMARK(BM_ComputeErrorStats)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Reproducing Table I: Delta A100 GPU resilience ===\n");
  std::printf("(full 1170-day campaign, 106 nodes / 448 GPUs, cluster-only)\n\n");
  const auto campaign = run_campaign();
  const auto stats = campaign->pipeline().error_stats();

  std::printf("%s\n", analysis::render_table1(stats).c_str());
  std::printf("%s\n", analysis::render_findings(stats).c_str());
  std::printf("--- paper vs measured ---\n");
  print_comparison(stats);
  std::printf("\n--- reproduction scorecard (Table I metrics) ---\n%s\n",
              analysis::score_reproduction(&stats, nullptr, nullptr, nullptr,
                                           0.0)
                  .render()
                  .c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
