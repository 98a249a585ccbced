// Reliability deep dive: the extended characterization beyond the paper's
// tables — temporal trends (the GSP production-ramp), arrival burstiness
// (NVLink storms vs Poisson-like MMU), spatial concentration (lemon GPUs),
// and survival analysis (Kaplan-Meier time-to-first-error, Weibull hazard
// shapes) — computed by the pipeline over a full-length campaign.
#include <cstdio>

#include "analysis/campaign.h"
#include "analysis/survival.h"
#include "analysis/trends.h"

int main() {
  using namespace gpures;

  analysis::CampaignConfig cfg = analysis::CampaignConfig::delta_a100();
  cfg.with_jobs = false;  // these analyses need errors only
  cfg.seed = 21;

  std::printf("running the full 1170-day campaign (cluster-only)...\n");
  analysis::DeltaCampaign campaign(cfg);
  analysis::AnalysisPipeline pipe(campaign.topology(),
                                  campaign.config().pipeline);
  campaign.set_analysis(&pipe);
  campaign.run();

  std::printf("%zu coalesced errors recovered from %llu raw lines\n\n",
              pipe.errors().size(),
              static_cast<unsigned long long>(campaign.raw_log_lines()));

  std::printf("=== Temporal / burstiness / concentration ===\n%s\n",
              analysis::render_trends(pipe.errors(), campaign.periods())
                  .c_str());
  std::printf("=== Survival analysis ===\n%s\n",
              analysis::render_survival(
                  pipe.errors(), campaign.periods(),
                  campaign.topology().total_gpus())
                  .c_str());

  std::printf(
      "\nReading guide: the GSP ramp after 2022-10 is finding (ii)'s "
      "production-load degradation; NVLink's inter-arrival CV >> 1 is the "
      "storm behaviour behind finding (iv); the uncontained family's Gini "
      "~0.9 is the single faulty GPU of finding (v); Weibull k < 1 means "
      "errors cluster on recently-erring devices — the basis for the SREs' "
      "replace-early policy.\n");
  return 0;
}
