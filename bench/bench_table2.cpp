// Regenerates paper Table II (probability of job failure given each GPU
// error family) from a full campaign with the Slurm workload enabled, and
// benchmarks the Stage III correlation over ~1.5M job records.
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

std::unique_ptr<bench::AnalyzedCampaign> run_campaign() {
  analysis::CampaignConfig cfg = analysis::CampaignConfig::delta_a100();
  cfg.seed = 2;
  auto campaign = std::make_unique<bench::AnalyzedCampaign>(cfg);
  campaign->run();
  return campaign;
}

const bench::AnalyzedCampaign& campaign() {
  static const auto c = run_campaign();
  return *c;
}

void print_comparison(const analysis::JobImpact& impact) {
  common::AsciiTable t({"GPU Error", "Paper failed/encounter", "Paper P(%)",
                        "Ours failed/encounter", "Ours P(%)"});
  for (const auto& ref : paper::kTable2) {
    const auto* row = impact.find(ref.code);
    if (row == nullptr) continue;
    const auto d = xid::describe(ref.code);
    t.add_row({std::string(d->abbrev),
               common::fmt_int(ref.failed_jobs) + "/" +
                   common::fmt_int(ref.encountering_jobs),
               common::fmt_fixed(ref.failure_probability, 2),
               common::fmt_int(row->failed_jobs) + "/" +
                   common::fmt_int(row->encountering_jobs),
               common::fmt_pct(row->failure_probability)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("GPU-failed jobs  paper: %s   ours: %s\n",
              common::fmt_int(paper::kGpuFailedJobs).c_str(),
              common::fmt_int(impact.gpu_failed_jobs).c_str());
}

void BM_JobImpactGpuLevel(benchmark::State& state) {
  const auto& c = campaign();
  analysis::JobImpactConfig cfg;
  cfg.window = 20;
  cfg.period = c.periods().op;
  for (auto _ : state) {
    auto impact = analysis::compute_job_impact(
        c.pipeline().jobs(), c.pipeline().errors(), cfg);
    benchmark::DoNotOptimize(impact.gpu_failed_jobs);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(c.pipeline().jobs().jobs.size()));
}
BENCHMARK(BM_JobImpactGpuLevel)->Unit(benchmark::kMillisecond);

void BM_JobImpactNodeLevel(benchmark::State& state) {
  const auto& c = campaign();
  analysis::JobImpactConfig cfg;
  cfg.window = 20;
  cfg.period = c.periods().op;
  cfg.attribution = analysis::Attribution::kNodeLevel;
  for (auto _ : state) {
    auto impact = analysis::compute_job_impact(
        c.pipeline().jobs(), c.pipeline().errors(), cfg);
    benchmark::DoNotOptimize(impact.gpu_failed_jobs);
  }
}
BENCHMARK(BM_JobImpactNodeLevel)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Reproducing Table II: GPU error -> job failure ===\n");
  std::printf("(full 1170-day campaign with ~1.4M-job Slurm workload)\n\n");
  const auto& c = campaign();
  const auto impact = c.pipeline().job_impact();

  std::printf("%s\n", analysis::render_table2(impact).c_str());
  std::printf("--- paper vs measured (device-level attribution, 20 s window) "
              "---\n");
  print_comparison(impact);

  // Methodology ablation: node-level attribution dilutes the probabilities.
  auto node_cfg = analysis::JobImpactConfig{};
  node_cfg.window = 20;
  node_cfg.period = c.periods().op;
  node_cfg.attribution = analysis::Attribution::kNodeLevel;
  const auto node_impact = analysis::compute_job_impact(
      c.pipeline().jobs(), c.pipeline().errors(), node_cfg);
  const auto* mmu_gpu = impact.find(xid::Code::kMmuError);
  const auto* mmu_node = node_impact.find(xid::Code::kMmuError);
  std::printf("\nAttribution ablation (MMU): device-level %.1f%% vs "
              "node-level %.1f%% — node-level counts innocent co-tenants "
              "and dilutes the signal\n\n",
              mmu_gpu->failure_probability * 100.0,
              mmu_node->failure_probability * 100.0);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
