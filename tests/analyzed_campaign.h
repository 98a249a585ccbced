// A campaign with an in-memory AnalysisPipeline attached: run() feeds the
// pipeline every day and accounting row it generates and finishes it, so a
// test reads the analysis of exactly what the campaign wrote.
#pragma once

#include <utility>

#include "analysis/campaign.h"
#include "analysis/pipeline.h"

namespace gpures::testing {

class AnalyzedCampaign : public analysis::DeltaCampaign {
 public:
  explicit AnalyzedCampaign(analysis::CampaignConfig cfg)
      : DeltaCampaign(std::move(cfg)), pipe_(topology(), config().pipeline) {
    set_analysis(&pipe_);
  }

  const analysis::AnalysisPipeline& pipeline() const { return pipe_; }

 private:
  analysis::AnalysisPipeline pipe_;
};

}  // namespace gpures::testing
