#include "analysis/stages.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <variant>

#include "common/strings.h"
#include "obs/trace.h"
#include "slurm/accounting.h"
#include "xid/xid.h"

namespace gpures::analysis {

PipeMetrics PipeMetrics::on(obs::MetricsRegistry& reg) {
  PipeMetrics m;
  m.log_lines = &reg.counter("pipe.log_lines");
  m.xid_records = &reg.counter("pipe.xid_records");
  m.lifecycle_records = &reg.counter("pipe.lifecycle_records");
  m.rejected_lines = &reg.counter("pipe.rejected_lines");
  m.unknown_hosts = &reg.counter("pipe.unknown_hosts");
  m.accounting_lines = &reg.counter("pipe.accounting_lines");
  m.accounting_errors = &reg.counter("pipe.accounting_errors");
  m.out_of_order = &reg.counter("pipe.out_of_order_observations");
  m.errors_coalesced = &reg.counter("pipe.errors_coalesced");
  return m;
}

PipeCounts PipeMetrics::counts() const {
  PipeCounts c;
  c.log_lines = log_lines->value();
  c.xid_records = xid_records->value();
  c.lifecycle_records = lifecycle_records->value();
  c.rejected_lines = rejected_lines->value();
  c.unknown_hosts = unknown_hosts->value();
  c.accounting_lines = accounting_lines->value();
  c.accounting_errors = accounting_errors->value();
  c.out_of_order_observations = out_of_order->value();
  c.errors_coalesced = errors_coalesced->value();
  return c;
}

void parse_lines(const LineParser& parser, const cluster::Topology& topo,
                 common::TimePoint day_start, const logsys::DayBuffer& day,
                 std::size_t lo, std::size_t hi, const PipeMetrics& m,
                 Stage1Batch& out) {
  OBS_SPAN("stage1.parse");
  std::uint64_t rejected = 0, unknown = 0, xids = 0, lifecycles = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    // The slice (and the XidRecord views borrowed from it) lives in the
    // day arena; hosts/PCI ids are resolved to indices right here, so
    // nothing outlives the iteration.
    auto parsed = parser.parse(day.line(i), day_start);
    if (!parsed) {
      ++rejected;
      continue;
    }
    if (auto* xrec = std::get_if<XidRecord>(&*parsed)) {
      const auto node = topo.node_index(xrec->host);
      if (!node) {
        ++unknown;
        continue;
      }
      const auto slot = topo.slot_for_pci(*node, xrec->pci);
      if (!slot) {
        ++unknown;
        continue;
      }
      ++xids;
      XidObservation obs;
      obs.time = xrec->time;
      obs.gpu = {*node, *slot};
      obs.xid = xrec->xid;
      out.obs.push_back(obs);
    } else if (auto* lrec = std::get_if<LifecycleRecord>(&*parsed)) {
      if (!topo.node_index(lrec->host)) {
        ++unknown;
        continue;
      }
      ++lifecycles;
      out.lifecycle.push_back(std::move(*lrec));
    }
  }
  m.log_lines->add(hi - lo);
  m.rejected_lines->add(rejected);
  m.unknown_hosts->add(unknown);
  m.xid_records->add(xids);
  m.lifecycle_records->add(lifecycles);
}

AccountingLine add_accounting_line(std::string_view line,
                                   const cluster::Topology& topo,
                                   JobTable& jobs, const PipeMetrics& m) {
  const auto trimmed = common::trim(line);
  if (trimmed.empty()) return AccountingLine::kBlank;
  m.accounting_lines->inc();
  if (trimmed == slurm::kAccountingHeader) return AccountingLine::kHeader;
  auto rec = slurm::parse_accounting_line(trimmed, topo);
  if (!rec.ok()) {
    m.accounting_errors->inc();
    return AccountingLine::kMalformed;
  }
  jobs.add(rec.value());
  return AccountingLine::kJob;
}

void sort_rows(std::vector<CoalescedError>& errors,
               std::vector<LifecycleRecord>& lifecycle) {
  std::sort(errors.begin(), errors.end(),
            [](const CoalescedError& a, const CoalescedError& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.gpu != b.gpu) return a.gpu < b.gpu;
              return xid::to_number(a.code) < xid::to_number(b.code);
            });
  std::stable_sort(lifecycle.begin(), lifecycle.end(),
                   [](const LifecycleRecord& a, const LifecycleRecord& b) {
                     return a.time < b.time;
                   });
}

Stage3::Stage3(const cluster::Topology& topo, Stage3Config cfg, RunRows rows,
               obs::MetricsRegistry& reg, common::ThreadPool* pool)
    : topo_(topo), cfg_(std::move(cfg)), rows_(rows), pool_(pool) {
  exposures_ = &reg.counter("pipe.stage3.exposures");
  join_us_ = &reg.histogram("pipe.stage3.exposure_join_us",
                            obs::latency_buckets_us());
  shards_.resize(pool_ != nullptr ? pool_->size() : 1);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "pipe.stage3.shard." + std::to_string(s) + ".";
    shards_[s].jobs = &reg.counter(prefix + "jobs");
    shards_[s].exposed = &reg.counter(prefix + "exposed");
  }
}

ErrorStats Stage3::error_stats() const {
  OBS_SPAN("stage3.error_stats");
  ErrorStatsConfig cfg;
  cfg.node_count = topo_.node_count();
  cfg.outlier_share = cfg_.outlier_share;
  cfg.outlier_min = cfg_.outlier_min;
  return compute_error_stats(rows_.errors, cfg_.periods, cfg);
}

JobStats Stage3::job_stats() const { return job_stats(cfg_.periods.whole()); }

JobStats Stage3::job_stats(const Period& w) const {
  OBS_SPAN("stage3.job_stats");
  return compute_job_stats(rows_.jobs, w);
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

double Stage3::mttf_estimate_h() const {
  return error_stats().total.op.mtbe_per_node_h;
}

}  // namespace gpures::analysis
