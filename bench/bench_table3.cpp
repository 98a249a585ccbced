// Regenerates paper Table III (job distribution, elapsed-time statistics and
// ML/non-ML GPU-hours by GPU-count bucket) plus the Section V-A job
// statistics, and benchmarks the Stage III job-population computation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "analysis/campaign.h"
#include "analysis/reports.h"
#include "common/table.h"
#include "analysis/paper_reference.h"
#include "analyzed_campaign.h"

namespace {

using namespace gpures;

const bench::AnalyzedCampaign& campaign() {
  static const auto c = [] {
    analysis::CampaignConfig cfg = analysis::CampaignConfig::delta_a100();
    cfg.seed = 3;
    auto campaign = std::make_unique<bench::AnalyzedCampaign>(cfg);
    campaign->run();
    return campaign;
  }();
  return *c;
}

void print_comparison(const analysis::JobStats& stats) {
  common::AsciiTable t({"GPUs", "Paper %", "Ours %", "Paper mean/P50/P99 (min)",
                        "Ours mean/P50/P99 (min)", "Paper ML/non-ML (k GPU-h)",
                        "Ours ML/non-ML (k GPU-h)"});
  for (std::size_t i = 0; i < paper::kTable3.size(); ++i) {
    const auto& ref = paper::kTable3[i];
    const auto& b = stats.buckets[i];
    char paper_t[64];
    char ours_t[64];
    char paper_h[48];
    char ours_h[48];
    std::snprintf(paper_t, sizeof(paper_t), "%.1f / %.1f / %.0f", ref.mean_min,
                  ref.p50_min, ref.p99_min);
    std::snprintf(ours_t, sizeof(ours_t), "%.1f / %.1f / %.0f",
                  b.mean_minutes, b.p50_minutes, b.p99_minutes);
    std::snprintf(paper_h, sizeof(paper_h), "%.1f / %.1f", ref.ml_gpu_hours_k,
                  ref.non_ml_gpu_hours_k);
    std::snprintf(ours_h, sizeof(ours_h), "%.1f / %.1f",
                  b.ml_gpu_hours / 1000.0, b.non_ml_gpu_hours / 1000.0);
    t.add_row({ref.label, common::fmt_fixed(ref.share_pct, 3),
               common::fmt_fixed(b.share * 100.0, 3), paper_t, ours_t,
               paper_h, ours_h});
  }
  std::printf("%s", t.render().c_str());
  std::printf("Jobs: paper %s (%.2f%% success)   ours %s (%.2f%% success)\n",
              common::fmt_int(paper::kGpuJobs).c_str(),
              paper::kGpuJobSuccessPct,
              common::fmt_int(stats.total_jobs).c_str(),
              stats.success_rate * 100.0);
}

void BM_ComputeJobStats(benchmark::State& state) {
  const auto& c = campaign();
  for (auto _ : state) {
    auto stats = analysis::compute_job_stats(c.pipeline().jobs(),
                                             c.periods().whole());
    benchmark::DoNotOptimize(stats.total_jobs);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(c.pipeline().jobs().jobs.size()));
}
BENCHMARK(BM_ComputeJobStats)->Unit(benchmark::kMillisecond);

void BM_MlNameClassifier(benchmark::State& state) {
  const char* names[] = {"train_resnet50_b0_017", "namd_md_b2_113",
                         "bert_finetune_b1_004", "cfd_sweep_b0_401",
                         "quantum_espresso_b3_088"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::is_ml_name(names[i % 5]));
    ++i;
  }
}
BENCHMARK(BM_MlNameClassifier);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Reproducing Table III: job population statistics ===\n");
  std::printf("(full 1170-day campaign; ML share re-derived from job names, "
              "as in the paper)\n\n");
  const auto stats = campaign().pipeline().job_stats();
  std::printf("%s\n", analysis::render_table3(stats).c_str());
  std::printf("--- paper vs measured ---\n");
  print_comparison(stats);
  std::printf("\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
