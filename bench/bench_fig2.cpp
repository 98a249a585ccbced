// Regenerates paper Fig. 2 (distribution of node unavailability durations)
// and the Section V-C availability analysis (MTTF/MTTR -> 99.5%), and
// benchmarks the availability computation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "analysis/campaign.h"
#include "analysis/reports.h"
#include "analysis/paper_reference.h"
#include "analyzed_campaign.h"

namespace {

using namespace gpures;

const bench::AnalyzedCampaign& campaign() {
  static const auto c = [] {
    analysis::CampaignConfig cfg = analysis::CampaignConfig::delta_a100();
    cfg.seed = 4;
    auto campaign = std::make_unique<bench::AnalyzedCampaign>(cfg);
    campaign->run();
    return campaign;
  }();
  return *c;
}

void BM_ComputeAvailability(benchmark::State& state) {
  const auto& c = campaign();
  analysis::AvailabilityConfig cfg;
  cfg.period = c.periods().op;
  cfg.node_count = 106;
  for (auto _ : state) {
    auto stats = analysis::compute_availability(c.pipeline().lifecycle(), cfg);
    benchmark::DoNotOptimize(stats.mttr_h);
  }
}
BENCHMARK(BM_ComputeAvailability)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Reproducing Fig. 2 + Section V-C: unavailability and "
              "availability ===\n\n");
  const auto& c = campaign();
  const auto avail = c.pipeline().availability();
  const double mttf = c.pipeline().mttf_estimate_h();

  std::printf("%s\n", analysis::render_fig2(avail, mttf).c_str());

  std::printf("--- paper vs measured ---\n");
  std::printf("MTTR                 paper: %.2f h      ours: %.2f h\n",
              paper::kMttrH, avail.mttr_h);
  std::printf("MTTF (per-node MTBE) paper: %.0f h       ours: %.0f h\n",
              paper::kMttfH, mttf);
  const double a = avail.availability(mttf);
  std::printf("Availability         paper: %.1f%%      ours: %.2f%%\n",
              paper::kAvailabilityPct, a * 100.0);
  std::printf("Downtime/node/day    paper: ~%.0f min    ours: %.1f min\n",
              paper::kDowntimeMinPerDay,
              analysis::AvailabilityStats::downtime_minutes_per_day(a));
  std::printf("Node-hours lost      paper: ~%.0f    ours: %.0f\n\n",
              paper::kNodeHoursLost, avail.total_node_hours_lost);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
