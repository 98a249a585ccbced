#include "analysis/pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <variant>

#include "common/strings.h"
#include "obs/trace.h"
#include "slurm/accounting.h"
#include "xid/xid.h"

namespace gpures::analysis {

namespace {

/// Stage-I output of a run of lines: records in line order, plus the lines
/// that yielded neither.
struct Stage1Batch {
  std::vector<XidObservation> obs;
  std::vector<LifecycleRecord> lifecycle;
  std::uint64_t rejected = 0;  ///< did not parse
  std::uint64_t unknown = 0;   ///< parsed, but host or PCI id unresolvable
};

/// Stage I over lines [lo, hi) of `day`: parse each line, resolve its host
/// and PCI id to a GPU, and record an observation or lifecycle record.  The
/// batch is built on the calling worker's stack, so workers share no cache
/// line while they parse.
Stage1Batch parse_lines(const LineParser& parser, const cluster::Topology& topo,
                        common::TimePoint day_start,
                        const logsys::DayBuffer& day, std::size_t lo,
                        std::size_t hi) {
  OBS_SPAN("stage1.parse");
  Stage1Batch out;
  for (std::size_t i = lo; i < hi; ++i) {
    // The slice (and the XidRecord views borrowed from it) lives in the
    // day arena; hosts/PCI ids are resolved to indices right here, so
    // nothing outlives the iteration.
    auto parsed = parser.parse(day.line(i), day_start);
    if (!parsed) {
      ++out.rejected;
      continue;
    }
    if (auto* xrec = std::get_if<XidRecord>(&*parsed)) {
      const auto node = topo.node_index(xrec->host);
      const auto slot = node ? topo.slot_for_pci(*node, xrec->pci)
                             : std::nullopt;
      if (!slot) {
        ++out.unknown;
        continue;
      }
      XidObservation obs;
      obs.time = xrec->time;
      obs.gpu = {*node, *slot};
      obs.xid = xrec->xid;
      out.obs.push_back(obs);
    } else if (auto* lrec = std::get_if<LifecycleRecord>(&*parsed)) {
      if (!topo.node_index(lrec->host)) {
        ++out.unknown;
        continue;
      }
      out.lifecycle.push_back(std::move(*lrec));
    }
  }
  return out;
}

std::unique_ptr<LineParser> make_parser(const PipelineConfig& cfg) {
  if (cfg.use_regex_parser) return std::make_unique<RegexLineParser>();
  return std::make_unique<FastLineParser>();
}

}  // namespace

/// The nine counters `pipe.log_lines` .. `pipe.errors_coalesced`.
struct AnalysisPipeline::Metrics {
  obs::Counter* log_lines = nullptr;
  obs::Counter* xid_records = nullptr;
  obs::Counter* lifecycle_records = nullptr;
  obs::Counter* rejected_lines = nullptr;
  obs::Counter* unknown_hosts = nullptr;
  obs::Counter* accounting_lines = nullptr;
  obs::Counter* accounting_errors = nullptr;
  obs::Counter* out_of_order = nullptr;
  obs::Counter* errors_coalesced = nullptr;
};

AnalysisPipeline::AnalysisPipeline(const cluster::Topology& topo,
                                   PipelineConfig cfg)
    : topo_(topo), cfg_(cfg) {
  if (cfg_.metrics != nullptr) {
    metrics_ = cfg_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  auto& reg = *metrics_;
  m_ = std::make_unique<Metrics>(Metrics{
      .log_lines = &reg.counter("pipe.log_lines"),
      .xid_records = &reg.counter("pipe.xid_records"),
      .lifecycle_records = &reg.counter("pipe.lifecycle_records"),
      .rejected_lines = &reg.counter("pipe.rejected_lines"),
      .unknown_hosts = &reg.counter("pipe.unknown_hosts"),
      .accounting_lines = &reg.counter("pipe.accounting_lines"),
      .accounting_errors = &reg.counter("pipe.accounting_errors"),
      .out_of_order = &reg.counter("pipe.out_of_order_observations"),
      .errors_coalesced = &reg.counter("pipe.errors_coalesced"),
  });

  if (cfg_.num_threads > 0) {
    pool_ = std::make_unique<common::ThreadPool>(cfg_.num_threads);
  }
  const std::size_t workers = pool_ ? pool_->size() : 1;
  for (std::size_t w = 0; w < workers; ++w) {
    parsers_.push_back(make_parser(cfg_));
  }
  coalescer_ = std::make_unique<Coalescer>(
      cfg_.coalescer, [this](const CoalescedError& e) {
        rows_.errors.push_back(e);
        m_->errors_coalesced->inc();
      });

  stage3_ = std::make_unique<Stage3>(topo_, cfg_, rows_, reg, pool_.get());
}

AnalysisPipeline::~AnalysisPipeline() = default;

common::TimePoint AnalysisPipeline::ingest_day(common::TimePoint day_start,
                                               const logsys::DayBuffer& day) {
  if (finished_) throw std::logic_error("pipeline: ingest after finish()");
  // Stage I.  With a pool, the lines split into one contiguous range per
  // worker (a chunk too small to share parses as one range) and merge
  // range-ordered — the observation sequence is the line sequence either
  // way, so results are byte-identical at any thread count.
  const std::size_t n = day.size();
  const std::size_t ranges =
      pool_ != nullptr && n >= 2 * pool_->size() ? pool_->size() : 1;
  std::vector<Stage1Batch> parts(ranges);
  const auto parse_range = [&](std::size_t i, std::size_t w) {
    parts[i] = parse_lines(*parsers_[w], topo_, day_start, day,
                           i * n / ranges, (i + 1) * n / ranges);
  };
  if (ranges == 1) {
    parse_range(0, 0);
  } else {
    pool_->parallel_for(ranges, parse_range);
  }
  // Stage II: one streaming coalescer over the merged sequence.
  common::TimePoint latest = 0;
  for (auto& part : parts) {
    m_->rejected_lines->add(part.rejected);
    m_->unknown_hosts->add(part.unknown);
    m_->xid_records->add(part.obs.size());
    m_->lifecycle_records->add(part.lifecycle.size());
    for (auto& l : part.lifecycle) rows_.lifecycle.push_back(std::move(l));
    for (const auto& o : part.obs) {
      coalescer_->add(o);
      latest = std::max(latest, o.time);
    }
  }
  m_->log_lines->add(n);
  return latest;
}

void AnalysisPipeline::ingest_log_day(common::TimePoint day_start,
                                      std::span<const logsys::RawLine> lines) {
  logsys::DayBuffer day;
  std::size_t bytes = 0;
  for (const auto& l : lines) bytes += l.text.size() + 1;
  day.reserve(lines.size(), bytes);
  for (const auto& l : lines) day.append(l.time, l.text);
  ingest_day(day_start, day);
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

AccountingLine AnalysisPipeline::ingest_accounting(std::string_view line) {
  if (finished_) throw std::logic_error("pipeline: ingest after finish()");
  const auto trimmed = common::trim(line);
  if (trimmed.empty()) return AccountingLine::kBlank;
  m_->accounting_lines->inc();
  if (trimmed == slurm::kAccountingHeader) return AccountingLine::kHeader;
  auto rec = slurm::parse_accounting_line(trimmed, topo_);
  if (!rec.ok()) {
    m_->accounting_errors->inc();
    return AccountingLine::kMalformed;
  }
  rows_.jobs.add(rec.value());
  return AccountingLine::kJob;
}

void AnalysisPipeline::restore(const CoalescerState& state,
                               EmittedRows&& rows) {
  coalescer_->restore(state);
  // Assigned in place: Stage III holds a reference to rows_.
  rows_ = std::move(rows);
}

void AnalysisPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  OBS_SPAN("pipeline.finish");
  coalescer_->flush();
  m_->out_of_order->add(coalescer_->out_of_order());
  // Errors sort by (time, GPU, code) — a total order, since two distinct
  // errors never tie — so the sequence is the same however the rows were
  // produced.  Lifecycle records sort stably by time: same-second ties keep
  // ingestion order.
  std::sort(rows_.errors.begin(), rows_.errors.end(),
            [](const CoalescedError& a, const CoalescedError& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.gpu != b.gpu) return a.gpu < b.gpu;
              return xid::to_number(a.code) < xid::to_number(b.code);
            });
  std::stable_sort(rows_.lifecycle.begin(), rows_.lifecycle.end(),
                   [](const LifecycleRecord& a, const LifecycleRecord& b) {
                     return a.time < b.time;
                   });
}

AnalysisPipeline::Counters AnalysisPipeline::counters() const {
  Counters c;
  c.log_lines = m_->log_lines->value();
  c.xid_records = m_->xid_records->value();
  c.lifecycle_records = m_->lifecycle_records->value();
  c.rejected_lines = m_->rejected_lines->value();
  c.unknown_hosts = m_->unknown_hosts->value();
  c.accounting_lines = m_->accounting_lines->value();
  c.accounting_errors = m_->accounting_errors->value();
  c.out_of_order_observations = m_->out_of_order->value();
  c.errors_coalesced = m_->errors_coalesced->value();
  return c;
}

}  // namespace gpures::analysis
