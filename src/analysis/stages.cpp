#include "analysis/stages.h"

#include <chrono>
#include <string>

#include "analysis/pipeline.h"
#include "obs/trace.h"

namespace gpures::analysis {

Stage3::Stage3(const cluster::Topology& topo, const PipelineConfig& cfg,
               const EmittedRows& rows, obs::MetricsRegistry& reg,
               common::ThreadPool* pool)
    : topo_(topo), cfg_(cfg), rows_(rows), pool_(pool) {
  exposures_ = &reg.counter("pipe.stage3.exposures");
  join_us_ = &reg.histogram("pipe.stage3.exposure_join_us",
                            obs::latency_buckets_us());
  reg.describe("pipe.stage3.shard_jobs",
               "Jobs the Stage-III exposure join scanned, by worker shard");
  reg.describe("pipe.stage3.shard_exposed",
               "Scanned jobs with at least one error, by worker shard");
  shards_.resize(pool_ != nullptr ? pool_->size() : 1);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string shard = std::to_string(s);
    shards_[s].jobs = &reg.counter("pipe.stage3.shard_jobs", {{"shard", shard}});
    shards_[s].exposed =
        &reg.counter("pipe.stage3.shard_exposed", {{"shard", shard}});
  }
}

Stage3Results Stage3::results() const {
  Stage3Results r;
  r.error_stats = error_stats();
  r.job_impact = job_impact();
  r.job_stats = job_stats();
  r.availability = availability();
  r.mttf_h = mttf_estimate_h(r.error_stats);
  return r;
}

ErrorStats Stage3::error_stats() const {
  OBS_SPAN("stage3.error_stats");
  ErrorStatsConfig cfg;
  cfg.node_count = topo_.node_count();
  cfg.outlier_share = cfg_.outlier_share;
  cfg.outlier_min = cfg_.outlier_min;
  return compute_error_stats(rows_.errors, cfg_.periods, cfg);
}

JobStats Stage3::job_stats() const {
  OBS_SPAN("stage3.job_stats");
  return compute_job_stats(rows_.jobs, cfg_.periods.whole());
}

JobImpactConfig Stage3::impact_config() const {
  JobImpactConfig cfg;
  cfg.window = cfg_.attribution_window;
  cfg.period = cfg_.periods.op;
  cfg.attribution = cfg_.attribution;
  return cfg;
}

JobImpact Stage3::job_impact() const {
  OBS_SPAN("stage3.job_impact");
  const auto t0 = std::chrono::steady_clock::now();
  ExposureJoinStats join;
  auto out = compute_job_impact(rows_.jobs, rows_.errors, impact_config(),
                                pool_, &join);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  join_us_->observe(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              elapsed)
                              .count()) /
      1000.0);
  exposures_->add(join.total_exposed());
  for (std::size_t s = 0; s < join.shards.size(); ++s) {
    const auto& sm = shards_[s % shards_.size()];
    sm.jobs->add(join.shards[s].jobs_scanned);
    sm.exposed->add(join.shards[s].jobs_exposed);
  }
  return out;
}

AvailabilityStats Stage3::availability() const {
  OBS_SPAN("stage3.availability");
  AvailabilityConfig cfg;
  cfg.period = cfg_.periods.op;
  cfg.node_count = topo_.node_count();
  return compute_availability(rows_.lifecycle, cfg, pool_);
}

}  // namespace gpures::analysis
