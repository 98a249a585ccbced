#include "analysis/pipeline.h"

#include <chrono>
#include <stdexcept>

#include "obs/trace.h"

namespace gpures::analysis {

namespace {

std::unique_ptr<LineParser> make_parser(const PipelineConfig& cfg) {
  if (cfg.use_regex_parser) return std::make_unique<RegexLineParser>();
  return std::make_unique<FastLineParser>();
}

}  // namespace

AnalysisPipeline::AnalysisPipeline(const cluster::Topology& topo,
                                   PipelineConfig cfg)
    : topo_(topo), cfg_(cfg) {
  if (cfg_.metrics != nullptr) {
    metrics_ = cfg_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_ = PipeMetrics::on(*metrics_);
  day_parse_us_ =
      &metrics_->histogram("pipe.stage1.day_parse_us", obs::latency_buckets_us());
  const std::size_t worker_slots =
      cfg_.num_threads == 0 ? 1 : cfg_.num_threads;
  worker_metrics_.resize(worker_slots);
  for (std::size_t w = 0; w < worker_slots; ++w) {
    const std::string prefix = "pipe.worker." + std::to_string(w) + ".";
    worker_metrics_[w].days_parsed = &metrics_->counter(prefix + "days_parsed");
    worker_metrics_[w].lines = &metrics_->counter(prefix + "lines");
    worker_metrics_[w].parse_time_ns =
        &metrics_->counter(prefix + "parse_time_ns");
  }

  if (cfg_.num_threads == 0) {
    parser_ = make_parser(cfg_);
    coalescer_ = std::make_unique<Coalescer>(
        cfg_.coalescer, [this](const CoalescedError& e) {
          errors_.push_back(e);
          m_.errors_coalesced->inc();
        });
  } else {
    // Parallel mode: N workers, each with a private Stage-I parser; N
    // Stage-II shards, each owning a private coalescer over a disjoint set
    // of GPUs.
    const std::size_t n = cfg_.num_threads;
    pool_ = std::make_unique<common::ThreadPool>(n);
    worker_parsers_.reserve(n);
    shard_coalescers_.reserve(n);
    shard_errors_.resize(n);
    shard_feed_.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      worker_parsers_.push_back(make_parser(cfg_));
      auto* sink = &shard_errors_[s];
      auto* coalesced = m_.errors_coalesced;
      shard_coalescers_.push_back(std::make_unique<Coalescer>(
          cfg_.coalescer, [sink, coalesced](const CoalescedError& e) {
            sink->push_back(e);
            coalesced->inc();
          }));
    }
    batch_days_ = cfg_.stage1_batch_days > 0
                      ? cfg_.stage1_batch_days
                      : 4 * static_cast<std::size_t>(cfg_.num_threads);
  }
  Stage3Config s3;
  s3.periods = cfg_.periods;
  s3.outlier_share = cfg_.outlier_share;
  s3.outlier_min = cfg_.outlier_min;
  s3.attribution_window = cfg_.attribution_window;
  s3.attribution = cfg_.attribution;
  stage3_ = std::make_unique<Stage3>(topo_, std::move(s3),
                                     RunRows{errors_, lifecycle_, jobs_},
                                     *metrics_, pool_.get());
}

AnalysisPipeline::~AnalysisPipeline() = default;

Stage1Batch AnalysisPipeline::parse_day(const LineParser& parser,
                                        std::size_t worker,
                                        common::TimePoint day_start,
                                        const logsys::DayBuffer& day) const {
  const auto t0 = std::chrono::steady_clock::now();
  Stage1Batch out;
  parse_lines(parser, topo_, day_start, day, 0, day.size(), m_, out);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  day_parse_us_->observe(static_cast<double>(ns) / 1000.0);
  const auto& wm = worker_metrics_[worker % worker_metrics_.size()];
  wm.days_parsed->inc();
  wm.lines->add(day.size());
  wm.parse_time_ns->add(ns);
  return out;
}

std::size_t AnalysisPipeline::shard_of(xid::GpuId gpu) const {
  return static_cast<std::size_t>(xid::gpu_key(gpu)) %
         shard_coalescers_.size();
}

void AnalysisPipeline::ingest_day(common::TimePoint day_start,
                                  logsys::DayBuffer&& day) {
  if (finished_) throw std::logic_error("pipeline: ingest after finish()");
  if (pool_) {
    pending_days_.push_back(PendingDay{day_start, std::move(day)});
    if (pending_days_.size() >= batch_days_) flush_pending_days();
    return;
  }
  auto parsed = parse_day(*parser_, 0, day_start, day);
  for (auto& l : parsed.lifecycle) lifecycle_.push_back(std::move(l));
  for (const auto& o : parsed.obs) coalescer_->add(o);
}

void AnalysisPipeline::ingest_log_day(common::TimePoint day_start,
                                      std::span<const logsys::RawLine> lines) {
  logsys::DayBuffer day;
  std::size_t bytes = 0;
  for (const auto& l : lines) bytes += l.text.size() + 1;
  day.reserve(lines.size(), bytes);
  for (const auto& l : lines) day.append(l.time, l.text);
  ingest_day(day_start, std::move(day));
}

void AnalysisPipeline::flush_pending_days() {
  if (pending_days_.empty()) return;
  // Stage I: each worker parses a contiguous chunk of days with its private
  // parser; outputs are indexed by day, so merge order is ingestion order
  // regardless of which worker parsed what.
  std::vector<Stage1Batch> parsed(pending_days_.size());
  pool_->parallel_for(
      pending_days_.size(), [&](std::size_t i, std::size_t w) {
        parsed[i] =
            parse_day(*worker_parsers_[w], w, pending_days_[i].day_start,
                      pending_days_[i].day);
      });
  // Deterministic ordered merge: day index order, stable within-day order —
  // exactly the sequence the serial path would have produced.
  {
    OBS_SPAN("stage1.merge_days");
    for (auto& day : parsed) {
      for (auto& l : day.lifecycle) lifecycle_.push_back(std::move(l));
      for (const auto& o : day.obs) shard_feed_[shard_of(o.gpu)].push_back(o);
    }
  }
  pending_days_.clear();
  // Stage II: shard s owns a disjoint set of (GPU, code) keys, so its
  // coalescer sees the same per-key subsequence as the serial coalescer.
  pool_->parallel_for(shard_feed_.size(), [&](std::size_t s, std::size_t) {
    OBS_SPAN("stage2.coalesce_shard");
    for (const auto& o : shard_feed_[s]) shard_coalescers_[s]->add(o);
    shard_feed_[s].clear();
  });
}

void AnalysisPipeline::ingest_log_text(common::TimePoint day_start,
                                       std::string&& text) {
  // The file text becomes the day arena outright; slicing on '\n' is the
  // only pass over the bytes (empty lines are skipped, as before).
  ingest_day(day_start,
             logsys::DayBuffer::from_text(day_start, std::move(text)));
}

void AnalysisPipeline::ingest_log_text(common::TimePoint day_start,
                                       std::string_view text) {
  ingest_log_text(day_start, std::string(text));
}

bool AnalysisPipeline::ingest_accounting_line(std::string_view line) {
  if (finished_) throw std::logic_error("pipeline: ingest after finish()");
  return add_accounting_line(line, topo_, jobs_, m_) !=
         AccountingLine::kMalformed;
}

void AnalysisPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  OBS_SPAN("pipeline.finish");
  if (pool_) {
    flush_pending_days();
    pool_->parallel_for(shard_coalescers_.size(),
                        [&](std::size_t s, std::size_t) {
                          shard_coalescers_[s]->flush();
                        });
    for (std::size_t s = 0; s < shard_coalescers_.size(); ++s) {
      errors_.insert(errors_.end(), shard_errors_[s].begin(),
                     shard_errors_[s].end());
      m_.out_of_order->add(shard_coalescers_[s]->out_of_order());
      shard_errors_[s].clear();
      shard_errors_[s].shrink_to_fit();
    }
  } else {
    coalescer_->flush();
    m_.out_of_order->add(coalescer_->out_of_order());
  }
  sort_rows(errors_, lifecycle_);
}

AnalysisPipeline::Counters AnalysisPipeline::counters() const {
  return m_.counts();
}

}  // namespace gpures::analysis
