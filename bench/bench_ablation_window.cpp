// Ablation A2: the job-failure attribution window.
//
// The paper labels a job "GPU-failed" when a GPU error lands within 20 s
// before the job's end.  This harness sweeps the window on a quick campaign
// and reports the GPU-failed job count and MMU failure probability: tiny
// windows miss crash lag and under-attribute; huge windows scoop up
// coincidental errors and over-attribute.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "analysis/campaign.h"
#include "analyzed_campaign.h"
#include "common/table.h"

namespace {

using namespace gpures;

const bench::AnalyzedCampaign& campaign() {
  static const auto c = [] {
    analysis::CampaignConfig cfg = analysis::CampaignConfig::quick();
    cfg.seed = 6;
    auto campaign = std::make_unique<bench::AnalyzedCampaign>(cfg);
    campaign->run();
    return campaign;
  }();
  return *c;
}

analysis::JobImpact impact_with_window(common::Duration w,
                                       analysis::Attribution attr) {
  analysis::JobImpactConfig cfg;
  cfg.window = w;
  cfg.period = campaign().periods().op;
  cfg.attribution = attr;
  return analysis::compute_job_impact(campaign().pipeline().jobs(),
                                      campaign().pipeline().errors(), cfg);
}

void BM_AttributionWindow(benchmark::State& state) {
  const auto w = static_cast<common::Duration>(state.range(0));
  std::uint64_t failed = 0;
  for (auto _ : state) {
    failed = impact_with_window(w, analysis::Attribution::kGpuLevel)
                 .gpu_failed_jobs;
    benchmark::DoNotOptimize(failed);
  }
  state.counters["gpu_failed_jobs"] = static_cast<double>(failed);
}
BENCHMARK(BM_AttributionWindow)
    ->Arg(1)->Arg(5)->Arg(20)->Arg(60)->Arg(300)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Ablation A2: attribution window and granularity ===\n");
  std::printf("(ground truth: %llu jobs killed directly by GPU errors)\n\n",
              static_cast<unsigned long long>(
                  campaign().jobs_killed_by_errors()));

  common::AsciiTable t({"window (s)", "GPU-failed jobs", "MMU P(fail|err) %",
                        "NVLink P(fail|err) %"});
  for (const common::Duration w : {1, 5, 10, 20, 40, 90, 300, 900}) {
    const auto impact =
        impact_with_window(w, analysis::Attribution::kGpuLevel);
    const auto* mmu = impact.find(xid::Code::kMmuError);
    const auto* nvl = impact.find(xid::Code::kNvlinkError);
    t.add_row({std::to_string(w), common::fmt_int(impact.gpu_failed_jobs),
               common::fmt_pct(mmu ? mmu->failure_probability : 0.0),
               common::fmt_pct(nvl ? nvl->failure_probability : 0.0)});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("Granularity at the paper's 20 s window:\n");
  common::AsciiTable g({"attribution", "GPU-failed jobs", "MMU encountering",
                        "MMU P(fail|err) %"});
  for (const auto attr : {analysis::Attribution::kGpuLevel,
                          analysis::Attribution::kNodeLevel}) {
    const auto impact = impact_with_window(20, attr);
    const auto* mmu = impact.find(xid::Code::kMmuError);
    g.add_row({attr == analysis::Attribution::kGpuLevel ? "device-level"
                                                        : "node-level",
               common::fmt_int(impact.gpu_failed_jobs),
               common::fmt_int(mmu ? mmu->encountering_jobs : 0),
               common::fmt_pct(mmu ? mmu->failure_probability : 0.0)});
  }
  std::printf("%s\n", g.render().c_str());
  std::printf("Reading: the paper's 20 s window sits on the plateau — wide "
              "enough for crash lag, narrow enough to avoid coincidental "
              "attribution; node-level attribution dilutes probabilities by "
              "counting co-tenant jobs.\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
