// Ablation A1: the error-coalescing window.
//
// The paper argues that counting raw log lines "significantly underestimates
// GPU resilience" and that duplicated lines must be coalesced.  This harness
// sweeps the window Delta-t on a quick campaign and reports recovered error
// counts against the simulator's ground truth: too small a window
// over-counts (duplicates survive), too large a window under-counts (distinct
// errors merge — visibly so for the faulty-GPU uncontained episode whose
// errors arrive ~38 s apart).
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
    cfg.seed = 5;
    cfg.with_jobs = false;
    auto campaign = std::make_unique<bench::AnalyzedCampaign>(cfg);
    campaign->run();
    return campaign;
  }();
  return *c;
}

// Re-coalesce the raw observations under a different window by replaying the
// ground-truth raw line stream through a fresh coalescer.
std::size_t recovered_errors(common::Duration window) {
  const auto& truth = campaign().ground_truth().errors;
  // Reconstruct raw observations from ground truth (leader + duplicates at
  // their recorded spread are not retained; approximate by replaying the
  // recovered pipeline observations instead: pipeline errors carry raw line
  // counts and leader/last times).
  std::vector<analysis::XidObservation> obs;
  obs.reserve(truth.size() * 2);
  for (const auto& e : campaign().pipeline().errors()) {
    // Spread the merged lines uniformly over [time, last].
    const auto span = std::max<common::Duration>(1, e.last - e.time);
    for (std::uint32_t i = 0; i < e.raw_lines; ++i) {
      obs.push_back({e.time + static_cast<common::Duration>(
                                  (span * i) / std::max(1u, e.raw_lines)),
                     e.gpu, e.raw_xid});
    }
  }
  analysis::CoalescerConfig cfg;
  cfg.window = window;
  return analysis::coalesce_all(std::move(obs), cfg).size();
}

void BM_CoalesceWindow(benchmark::State& state) {
  const auto window = static_cast<common::Duration>(state.range(0));
  std::size_t out = 0;
  for (auto _ : state) {
    out = recovered_errors(window);
    benchmark::DoNotOptimize(out);
  }
  state.counters["errors"] = static_cast<double>(out);
  state.counters["truth"] =
      static_cast<double>(campaign().ground_truth().errors.size());
}
BENCHMARK(BM_CoalesceWindow)
    ->Arg(0)->Arg(5)->Arg(15)->Arg(30)->Arg(60)->Arg(120)->Arg(300)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Ablation A1: coalescing window sweep ===\n");
  const auto truth = campaign().ground_truth().errors.size();
  std::uint64_t raw_lines = 0;
  for (const auto& e : campaign().ground_truth().errors) {
    raw_lines += e.raw_line_count;
  }
  std::printf("ground truth: %zu errors, %llu raw lines (x%.1f duplication)\n\n",
              truth, static_cast<unsigned long long>(raw_lines),
              static_cast<double>(raw_lines) / static_cast<double>(truth));

  common::AsciiTable t({"window (s)", "recovered errors", "vs truth"});
  for (const common::Duration w : {0, 5, 15, 30, 60, 120, 300, 600, 1800}) {
    const auto n = recovered_errors(w);
    char rel[32];
    std::snprintf(rel, sizeof(rel), "%+.1f%%",
                  (static_cast<double>(n) / static_cast<double>(truth) - 1.0) *
                      100.0);
    t.add_row({std::to_string(w), common::fmt_int(n), rel});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Reading: small windows over-count (duplicates survive); very "
              "large windows swallow the ~38 s-spaced uncontained episode "
              "errors.\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
