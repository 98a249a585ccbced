// Differential harness for the query serving layer: a seeded corpus of
// random node / XID / time-window predicates, every one answered twice —
// once by the IndexReader + QueryEngine over the mapped artifact, once
// computed fresh from the pipeline's in-memory outputs with the batch
// machinery — and held exactly equal (integer counts ==, doubles bitwise
// via the same arithmetic).  Also proves the cache is semantically
// invisible (cache-on vs cache-off) and that four threads hammering one
// shared mapping agree with the serial answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "analysis/availability.h"
#include "analysis/campaign.h"
#include "analysis/error_stats.h"
#include "analysis/job_impact.h"
#include "analysis/pipeline.h"
#include "analyzed_campaign.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "common/stats.h"
#include "index/query.h"
#include "index/reader.h"
#include "index/writer.h"
#include "obs/metrics.h"
#include "slurm/job.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;
namespace gt = gpures::testing;
namespace gx = gpures::xid;
namespace ix = gpures::index;
namespace obs = gpures::obs;
namespace fs = std::filesystem;

namespace {

/// One simulated campaign (errors + jobs + unavailability) shared by every
/// test in this binary, with its index written and mapped once.
class QueryDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    an::CampaignConfig cfg = an::CampaignConfig::quick();
    cfg.seed = 23;
    cfg.workload_scale *= 0.3;
    campaign_ = new gt::AnalyzedCampaign(cfg);
    campaign_->run();
    avail_ = new an::AvailabilityStats(campaign_->pipeline().availability());

    // Per-process dir: ctest runs each case as its own process, possibly
    // concurrently, and one must not rewrite the index another has mapped.
    const auto dir = fs::temp_directory_path() /
                     ("gpures_idx_differential_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    path_ = (dir / "gpures.idx").string();

    ix::IndexBuildInput in;
    in.periods = campaign_->periods();
    in.attribution_window = cfg.pipeline.attribution_window;
    in.attribution = cfg.pipeline.attribution;
    in.outlier_share = cfg.pipeline.outlier_share;
    in.outlier_min = cfg.pipeline.outlier_min;
    in.topo = &campaign_->topology();
    in.errors = &campaign_->pipeline().errors();
    in.jobs = &campaign_->pipeline().jobs();
    in.unavailability = &avail_->intervals;
    const auto wrote = ix::write_index(in, path_);
    ASSERT_TRUE(wrote.ok()) << wrote.error().message;

    auto opened = ix::IndexReader::open(path_);
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    reader_ = new ix::IndexReader(std::move(opened).take());
    ASSERT_GT(reader_->meta().error_count, 50u) << "corpus too thin";
    ASSERT_GT(reader_->meta().job_count, 500u) << "corpus too thin";
  }

  static void TearDownTestSuite() {
    delete reader_;
    reader_ = nullptr;
    if (!path_.empty()) fs::remove_all(fs::path(path_).parent_path());
    delete avail_;
    avail_ = nullptr;
    delete campaign_;
    campaign_ = nullptr;
  }

  static gt::AnalyzedCampaign* campaign_;
  static an::AvailabilityStats* avail_;
  static ix::IndexReader* reader_;
  static std::string path_;
};

gt::AnalyzedCampaign* QueryDifferential::campaign_ = nullptr;
an::AvailabilityStats* QueryDifferential::avail_ = nullptr;
ix::IndexReader* QueryDifferential::reader_ = nullptr;
std::string QueryDifferential::path_;

/// Seeded predicate corpus: mixes empty, narrow, and whole-study windows
/// with optional node and XID filters (including family aliases 120/123,
/// excluded code 13, and a never-logged XID).
std::vector<ix::Predicate> make_corpus(const ix::IndexReader& reader,
                                       std::uint64_t seed, int n) {
  constexpr std::uint16_t kXids[] = {31, 48, 63, 64, 74,  79, 94,
                                     95, 119, 120, 122, 123, 13, 777};
  const auto& meta = reader.meta();
  const auto begin = meta.periods.pre.begin;
  const auto span =
      static_cast<std::uint64_t>(meta.periods.op.end - begin);
  ct::Rng rng = ct::Rng(seed).fork("predicates");
  std::vector<ix::Predicate> out;
  for (int i = 0; i < n; ++i) {
    ix::Predicate p;
    const auto a = begin + static_cast<std::int64_t>(rng.uniform_u64(span));
    const auto b = begin + static_cast<std::int64_t>(rng.uniform_u64(span));
    p.from = std::min(a, b);
    p.to = std::max(a, b);
    if (rng.uniform() < 0.15) {  // whole-study window
      p.from = begin;
      p.to = meta.periods.op.end;
    }
    if (rng.uniform() < 0.5) {
      p.node = static_cast<std::int32_t>(rng.uniform_u64(meta.node_count));
    }
    if (rng.uniform() < 0.5) {
      p.xid = kXids[rng.uniform_u64(std::size(kXids))];
    }
    out.push_back(p);
  }
  return out;
}

std::uint16_t canonical_xid(std::uint16_t xid) {
  if (!gx::is_known(xid)) return xid;
  return gx::to_number(gx::merge_key(static_cast<gx::Code>(xid)));
}

/// Reference count: a naive full scan of the pipeline's coalesced errors,
/// then the same MTBE arithmetic the batch reports use.
ix::CountResult ref_count(const gt::AnalyzedCampaign& campaign,
                          std::uint32_t node_count, const ix::Predicate& p) {
  ix::CountResult out;
  out.window_hours = ct::to_hours(p.to - p.from);
  const std::optional<std::uint16_t> want =
      p.xid.has_value() ? std::optional<std::uint16_t>(canonical_xid(*p.xid))
                        : std::nullopt;
  for (const auto& e : campaign.pipeline().errors()) {
    if (e.time < p.from || e.time >= p.to) continue;
    if (p.node.has_value() && e.gpu.node != *p.node) continue;
    if (want.has_value() && gx::to_number(e.code) != *want) continue;
    ++out.count;
  }
  out.mtbe_system_h = ct::mtbe(out.window_hours, out.count);
  out.mtbe_per_node_h =
      out.mtbe_system_h *
      (p.node.has_value() ? 1.0 : static_cast<double>(node_count));
  return out;
}

/// Reference impact: the batch compute_job_impact over a node-filtered copy
/// of the job table with the predicate window as the analysis period.
an::JobImpact ref_impact(const gt::AnalyzedCampaign& campaign,
                         const ix::Predicate& p, ct::Duration window,
                         an::Attribution attribution) {
  an::JobTable table = campaign.pipeline().jobs();  // spill stays aligned
  if (p.node.has_value()) {
    std::vector<an::JobView> kept;
    for (const auto& j : table.jobs) {
      const auto gpus = table.gpus_of(j);
      if (std::any_of(gpus.begin(), gpus.end(), [&](an::PackedGpu g) {
            return an::packed_node(g) == *p.node;
          })) {
        kept.push_back(j);
      }
    }
    table.jobs = std::move(kept);
  }
  an::JobImpactConfig cfg;
  cfg.window = window;
  cfg.period = {p.from, p.to};
  cfg.attribution = attribution;
  return an::compute_job_impact(table, campaign.pipeline().errors(), cfg);
}

/// Reference availability: filter + sort the pipeline's intervals exactly as
/// the artifact stores them, then the documented fold and formulas.
ix::AvailabilityResult ref_availability(const gt::AnalyzedCampaign& campaign,
                                        const an::AvailabilityStats& avail,
                                        std::uint32_t node_count,
                                        const ix::Predicate& p) {
  struct Row {
    std::int64_t begin;
    std::int32_t node;
    std::int64_t end;
  };
  std::vector<Row> rows;
  for (const auto& u : avail.intervals) {
    const auto node = campaign.topology().node_index(u.host);
    if (!node.has_value()) continue;
    if (u.begin < p.from || u.begin >= p.to) continue;
    if (p.node.has_value() && *node != *p.node) continue;
    rows.push_back({u.begin, *node, u.end});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.node != b.node) return a.node < b.node;
    return a.end < b.end;
  });
  ix::AvailabilityResult out;
  std::vector<double> durations;
  for (const auto& r : rows) {
    durations.push_back(ct::to_hours(r.end - r.begin));
    out.hours_lost += durations.back();
  }
  out.intervals = durations.size();
  out.mttr_h = ct::summarize(durations).mean;
  // MTTF: the batch aggregate MTBE — compute_error_stats itself over the
  // window's errors (any XID filter deliberately ignored), with the
  // pipeline's outlier config and the window standing in for the op period.
  std::vector<an::CoalescedError> errs;
  for (const auto& e : campaign.pipeline().errors()) {
    if (e.time < p.from || e.time >= p.to) continue;
    if (p.node.has_value() && e.gpu.node != *p.node) continue;
    errs.push_back(e);
  }
  an::StudyPeriods periods;
  periods.pre = {p.from, p.from};
  periods.op = {p.from, p.to};
  an::ErrorStatsConfig cfg;
  cfg.node_count =
      p.node.has_value() ? 1 : static_cast<std::int32_t>(node_count);
  cfg.outlier_share = campaign.pipeline().config().outlier_share;
  cfg.outlier_min = campaign.pipeline().config().outlier_min;
  out.mttf_h =
      an::compute_error_stats(errs, periods, cfg).total.op.mtbe_per_node_h;
  if (!std::isfinite(out.mttf_h) || out.mttf_h <= 0.0 || out.mttr_h < 0.0) {
    out.availability = 1.0;
  } else {
    out.availability = out.mttf_h / (out.mttf_h + out.mttr_h);
  }
  return out;
}

void expect_count_eq(const ix::CountResult& got, const ix::CountResult& want,
                     const ix::Predicate& p, const char* what) {
  SCOPED_TRACE(std::string(what) + " from=" + std::to_string(p.from) +
               " to=" + std::to_string(p.to) +
               (p.node ? " node=" + std::to_string(*p.node) : "") +
               (p.xid ? " xid=" + std::to_string(*p.xid) : ""));
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.window_hours, want.window_hours);
  // Same arithmetic on the same integers: bitwise equality, inf included.
  EXPECT_TRUE(got.mtbe_system_h == want.mtbe_system_h ||
              (std::isinf(got.mtbe_system_h) && std::isinf(want.mtbe_system_h)))
      << got.mtbe_system_h << " vs " << want.mtbe_system_h;
  EXPECT_TRUE(
      got.mtbe_per_node_h == want.mtbe_per_node_h ||
      (std::isinf(got.mtbe_per_node_h) && std::isinf(want.mtbe_per_node_h)))
      << got.mtbe_per_node_h << " vs " << want.mtbe_per_node_h;
}

void expect_impact_eq(const ix::ImpactResult& got, const an::JobImpact& want,
                      const ix::Predicate& p) {
  SCOPED_TRACE("impact from=" + std::to_string(p.from) +
               " to=" + std::to_string(p.to) +
               (p.node ? " node=" + std::to_string(*p.node) : "") +
               (p.xid ? " xid=" + std::to_string(*p.xid) : ""));
  EXPECT_EQ(got.jobs_analyzed, want.jobs_analyzed);
  EXPECT_EQ(got.failed_jobs_total, want.failed_jobs_total);
  EXPECT_EQ(got.gpu_failed_jobs, want.gpu_failed_jobs);
  const int want_bit =
      p.xid.has_value()
          ? an::exposure_bit(static_cast<gx::Code>(canonical_xid(*p.xid)))
          : -1;
  std::size_t gi = 0;
  for (std::size_t b = 0; b < want.rows.size(); ++b) {
    if (p.xid.has_value() && static_cast<int>(b) != want_bit) continue;
    ASSERT_LT(gi, got.rows.size());
    const auto& g = got.rows[gi++];
    const auto& w = want.rows[b];
    EXPECT_EQ(g.code, w.code);
    EXPECT_EQ(g.encountering_jobs, w.encountering_jobs);
    EXPECT_EQ(g.failed_jobs, w.failed_jobs);
    EXPECT_EQ(g.failure_probability, w.failure_probability);
    EXPECT_EQ(g.ci.p, w.ci.p);
    EXPECT_EQ(g.ci.lo, w.ci.lo);
    EXPECT_EQ(g.ci.hi, w.ci.hi);
  }
  EXPECT_EQ(gi, got.rows.size());
}

void expect_avail_eq(const ix::AvailabilityResult& got,
                     const ix::AvailabilityResult& want,
                     const ix::Predicate& p) {
  SCOPED_TRACE("availability from=" + std::to_string(p.from) +
               " to=" + std::to_string(p.to) +
               (p.node ? " node=" + std::to_string(*p.node) : ""));
  EXPECT_EQ(got.intervals, want.intervals);
  EXPECT_EQ(got.hours_lost, want.hours_lost);
  EXPECT_EQ(got.mttr_h, want.mttr_h);
  EXPECT_TRUE(got.mttf_h == want.mttf_h ||
              (std::isinf(got.mttf_h) && std::isinf(want.mttf_h)));
  EXPECT_EQ(got.availability, want.availability);
}

}  // namespace

TEST_F(QueryDifferential, CountsMatchNaiveScanOnSeededCorpus) {
  ix::QueryEngine engine(*reader_);
  for (const auto& p : make_corpus(*reader_, 101, 120)) {
    expect_count_eq(engine.count(p),
                    ref_count(*campaign_, reader_->meta().node_count, p), p,
                    "count");
  }
}

TEST_F(QueryDifferential, ImpactMatchesBatchJoinOnSeededCorpus) {
  ix::QueryEngine engine(*reader_);
  // The join is the expensive verb; a smaller corpus still covers node and
  // XID filters, empty windows, and the whole-study window.
  for (const auto& p : make_corpus(*reader_, 202, 40)) {
    expect_impact_eq(
        engine.impact(p),
        ref_impact(*campaign_, p, engine.effective_window(),
                   engine.node_level() ? an::Attribution::kNodeLevel
                                       : an::Attribution::kGpuLevel),
        p);
  }
}

TEST_F(QueryDifferential, NodeLevelAttributionAlsoMatches) {
  ix::QueryOptions opts;
  opts.attribution = 1;  // override the recorded device-level setting
  ix::QueryEngine engine(*reader_, opts);
  for (const auto& p : make_corpus(*reader_, 303, 15)) {
    expect_impact_eq(engine.impact(p),
                     ref_impact(*campaign_, p, engine.effective_window(),
                                an::Attribution::kNodeLevel),
                     p);
  }
}

TEST_F(QueryDifferential, AvailabilityMatchesPipelineOnSeededCorpus) {
  ix::QueryEngine engine(*reader_);
  for (const auto& p : make_corpus(*reader_, 404, 120)) {
    expect_avail_eq(
        engine.availability(p),
        ref_availability(*campaign_, *avail_, reader_->meta().node_count, p),
        p);
  }
}

TEST_F(QueryDifferential, WholePeriodAvailabilityMatchesFig2) {
  // The headline number: the whole-op-period query must reproduce the
  // pipeline's §V-C availability computation exactly.
  ix::QueryEngine engine(*reader_);
  ix::Predicate p;
  p.from = reader_->meta().periods.op.begin;
  p.to = reader_->meta().periods.op.end;
  const auto got = engine.availability(p);
  const double mttf = campaign_->pipeline().mttf_estimate_h();
  EXPECT_EQ(got.availability, avail_->availability(mttf));
  EXPECT_EQ(got.mttr_h, avail_->mttr_h);
  EXPECT_EQ(got.mttf_h, mttf);
}

TEST_F(QueryDifferential, CacheOnAndOffAgreeBitwise) {
  ix::QueryOptions cached_opts;
  cached_opts.cache_capacity = 8;  // small: forces evictions mid-corpus
  ix::QueryOptions uncached_opts;
  uncached_opts.cache_capacity = 0;
  ix::QueryEngine cached(*reader_, cached_opts);
  ix::QueryEngine uncached(*reader_, uncached_opts);

  const auto corpus = make_corpus(*reader_, 505, 30);
  for (int pass = 0; pass < 2; ++pass) {  // second pass hits the cache
    for (const auto& p : corpus) {
      expect_count_eq(cached.count(p), uncached.count(p), p, "count");
      expect_avail_eq(cached.availability(p), uncached.availability(p), p);
      const auto a = cached.impact(p);
      const auto b = uncached.impact(p);
      EXPECT_EQ(a.jobs_analyzed, b.jobs_analyzed);
      EXPECT_EQ(a.gpu_failed_jobs, b.gpu_failed_jobs);
      ASSERT_EQ(a.rows.size(), b.rows.size());
      for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].encountering_jobs, b.rows[i].encountering_jobs);
        EXPECT_EQ(a.rows[i].failed_jobs, b.rows[i].failed_jobs);
        EXPECT_EQ(a.rows[i].failure_probability, b.rows[i].failure_probability);
        EXPECT_EQ(a.rows[i].ci.lo, b.rows[i].ci.lo);
        EXPECT_EQ(a.rows[i].ci.hi, b.rows[i].ci.hi);
      }
    }
  }
  // The sequential sweep above legitimately never revisits an entry before
  // the 8-slot LRU evicts it; an immediate repeat is the guaranteed hit.
  const auto misses_before = cached.cache_misses();
  const auto first = cached.count(corpus.front());
  expect_count_eq(cached.count(corpus.front()), first, corpus.front(),
                  "repeat");
  EXPECT_GT(cached.cache_hits(), 0u);
  EXPECT_EQ(cached.cache_misses(), misses_before + 1);
  EXPECT_EQ(uncached.cache_hits(), 0u);
}

TEST_F(QueryDifferential, FourConcurrentReadersAgreeWithSerialAnswers) {
  // One shared engine (shared cache, shared mapping), four threads asking
  // the same corpus in different orders; every answer must equal the serial
  // reference computed up front.
  const auto corpus = make_corpus(*reader_, 606, 40);
  std::vector<ix::CountResult> want_counts;
  std::vector<ix::AvailabilityResult> want_avail;
  for (const auto& p : corpus) {
    want_counts.push_back(
        ref_count(*campaign_, reader_->meta().node_count, p));
    want_avail.push_back(ref_availability(*campaign_, *avail_,
                                          reader_->meta().node_count, p));
  }

  ix::QueryEngine engine(*reader_);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < corpus.size(); ++k) {
        // Stagger the order per thread so hits and misses interleave.
        const std::size_t i = (k + static_cast<std::size_t>(t) * 7) %
                              corpus.size();
        const auto c = engine.count(corpus[i]);
        const auto v = engine.availability(corpus[i]);
        if (c.count != want_counts[i].count ||
            c.mtbe_per_node_h != want_counts[i].mtbe_per_node_h) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        if (v.intervals != want_avail[i].intervals ||
            v.availability != want_avail[i].availability) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_EQ(engine.cache_hits() + engine.cache_misses(),
            4u * corpus.size() * 2u);
}

TEST_F(QueryDifferential, MetricsRegistryObservesCallsWithoutChangingResults) {
  obs::MetricsRegistry registry;
  ix::QueryOptions opts;
  opts.metrics = &registry;
  ix::QueryEngine with_metrics(*reader_, opts);
  ix::QueryEngine without(*reader_);
  const auto corpus = make_corpus(*reader_, 707, 10);
  for (const auto& p : corpus) {
    expect_count_eq(with_metrics.count(p), without.count(p), p, "count");
  }
  EXPECT_EQ(registry.counter("query.calls.count").value(), corpus.size());
  EXPECT_EQ(registry.counter("query.cache.hits").value() +
                registry.counter("query.cache.misses").value(),
            corpus.size());
}

// ---- impact sweep vs the per-job binary-search join -------------------------
// The impact join sweeps jobs in end order with a forward-only cursor per
// location group.  These cases hold it bit-equal to the join it replaced —
// per job, a binary search for each location key, then a lower_bound inside
// the group and a forward scan — kept below as a test-local reference over
// the same mapped columns, in both attribution modes.

namespace {

std::size_t lower_index(std::span<const std::int64_t> v, std::int64_t t) {
  return static_cast<std::size_t>(std::lower_bound(v.begin(), v.end(), t) -
                                  v.begin());
}

ix::ImpactResult binary_search_join(const ix::IndexReader& r,
                                    const ix::Predicate& p,
                                    ct::Duration window, bool node_level) {
  ix::ImpactResult out;
  const auto order = gx::report_order();
  const an::Period period{p.from, p.to};
  const auto keys = r.loc_keys();
  const auto group = [&](std::size_t k) { return r.loc_group(k); };
  const auto job_end = r.job_end();
  const std::size_t lo = lower_index(job_end, p.from);
  const std::size_t hi = lower_index(job_end, p.to);
  std::vector<std::uint64_t> encountering(order.size(), 0);
  std::vector<std::uint64_t> failed(order.size(), 0);
  std::vector<std::int32_t> nodes;
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const auto gpus = r.job_gpus(idx);
    if (p.node.has_value() &&
        std::none_of(gpus.begin(), gpus.end(), [&](std::int32_t g) {
          return an::packed_node(g) == *p.node;
        })) {
      continue;
    }
    ++out.jobs_analyzed;
    const auto state = static_cast<gpures::slurm::JobState>(r.job_state()[idx]);
    if (gpures::slurm::is_failure(state)) ++out.failed_jobs_total;
    const std::int64_t start = r.job_start()[idx];
    const std::int64_t end = job_end[idx];
    std::uint32_t run_mask = 0;
    std::uint32_t window_mask = 0;
    const auto scan = [&](const ix::IndexReader::LocGroup& g) {
      for (std::size_t i = lower_index(g.time, start + 1);
           i < g.time.size() && g.time[i] <= end; ++i) {
        if (!period.contains(g.time[i])) continue;
        run_mask |= 1u << g.bit[i];
        if (g.time[i] >= end - window) window_mask |= 1u << g.bit[i];
      }
    };
    if (!node_level) {
      for (const std::int32_t g : gpus) {
        const auto it = std::lower_bound(keys.begin(), keys.end(), g);
        if (it != keys.end() && *it == g) {
          scan(group(static_cast<std::size_t>(it - keys.begin())));
        }
      }
    } else {
      nodes.clear();
      for (const std::int32_t g : gpus) {
        if (std::find(nodes.begin(), nodes.end(), an::packed_node(g)) ==
            nodes.end()) {
          nodes.push_back(an::packed_node(g));
        }
      }
      for (const std::int32_t n : nodes) {
        const auto first =
            std::lower_bound(keys.begin(), keys.end(), an::pack_gpu(n, 0));
        const auto last =
            std::upper_bound(first, keys.end(), an::pack_gpu(n, 0xff));
        for (auto it = first; it != last; ++it) {
          scan(group(static_cast<std::size_t>(it - keys.begin())));
        }
      }
    }
    if (run_mask == 0) continue;
    const bool gpu_failed =
        gpures::slurm::is_failure(state) && window_mask != 0;
    if (gpu_failed) ++out.gpu_failed_jobs;
    for (std::size_t b = 0; b < order.size(); ++b) {
      if (run_mask & (1u << b)) ++encountering[b];
      if (gpu_failed && (window_mask & (1u << b))) ++failed[b];
    }
  }
  const int want_bit =
      p.xid.has_value()
          ? an::exposure_bit(static_cast<gx::Code>(canonical_xid(*p.xid)))
          : -1;
  for (std::size_t b = 0; b < order.size(); ++b) {
    if (p.xid.has_value() && static_cast<int>(b) != want_bit) continue;
    ix::ImpactRowResult row;
    row.code = order[b];
    row.failed_jobs = failed[b];
    row.encountering_jobs = encountering[b];
    if (encountering[b] > 0) {
      row.failure_probability = static_cast<double>(failed[b]) /
                                static_cast<double>(encountering[b]);
      row.ci = ct::wilson_interval(failed[b], encountering[b]);
    }
    out.rows.push_back(row);
  }
  return out;
}

void expect_same_impact(const ix::ImpactResult& got,
                        const ix::ImpactResult& want, const ix::Predicate& p,
                        bool node_level) {
  SCOPED_TRACE(std::string(node_level ? "node-level" : "device-level") +
               " from=" + std::to_string(p.from) +
               " to=" + std::to_string(p.to) +
               (p.node ? " node=" + std::to_string(*p.node) : "") +
               (p.xid ? " xid=" + std::to_string(*p.xid) : ""));
  EXPECT_EQ(got.jobs_analyzed, want.jobs_analyzed);
  EXPECT_EQ(got.failed_jobs_total, want.failed_jobs_total);
  EXPECT_EQ(got.gpu_failed_jobs, want.gpu_failed_jobs);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].code, want.rows[i].code);
    EXPECT_EQ(got.rows[i].encountering_jobs, want.rows[i].encountering_jobs);
    EXPECT_EQ(got.rows[i].failed_jobs, want.rows[i].failed_jobs);
    EXPECT_EQ(got.rows[i].failure_probability,
              want.rows[i].failure_probability);
    EXPECT_EQ(got.rows[i].ci.p, want.rows[i].ci.p);
    EXPECT_EQ(got.rows[i].ci.lo, want.rows[i].ci.lo);
    EXPECT_EQ(got.rows[i].ci.hi, want.rows[i].ci.hi);
  }
}

/// An uncached engine per attribution mode: a cache would hide any state a
/// call left behind for the next one.
ix::QueryEngine uncached_engine(const ix::IndexReader& r, bool node_level,
                                ct::Duration window = -1) {
  ix::QueryOptions opts;
  opts.cache_capacity = 0;
  opts.attribution = node_level ? 1 : 0;
  opts.attribution_window = window;
  return ix::QueryEngine(r, opts);
}

}  // namespace

TEST_F(QueryDifferential, ImpactSweepMatchesBinarySearchJoinOverMixedCalls) {
  // 200 calls on one engine per mode, windows, node and XID filters mixed,
  // so cursor state that leaked from one call would corrupt a later one.
  for (const bool node_level : {false, true}) {
    auto engine = uncached_engine(*reader_, node_level);
    for (const auto& p : make_corpus(*reader_, 808, 200)) {
      expect_same_impact(engine.impact(p),
                         binary_search_join(*reader_, p,
                                            engine.effective_window(),
                                            node_level),
                         p, node_level);
    }
  }
}

namespace {

/// A hand-placed index for the sweep's boundaries: errors exactly at a job's
/// start, start + 1, end, end - window and end - window - 1; jobs sharing an
/// end time and a GPU; a long job that a window's `from` cuts; a wide
/// (spilled) job; an error on a node's unallocated GPU; plus a seeded crowd
/// of jobs and errors whose times collide with those boundaries.
class ImpactSweepEdges : public ::testing::Test {
 protected:
  static constexpr ct::Duration kWindow = 20;

  static void SetUpTestSuite() {
    topo_ = new gpures::cluster::Topology(
        gpures::cluster::ClusterSpec::small());
    periods_ = an::StudyPeriods::make(ct::make_date(2023, 1, 1),
                                      ct::make_date(2023, 2, 1),
                                      ct::make_date(2023, 6, 1));
    base_ = periods_.op.begin + 100000;
    const ct::TimePoint s = base_;
    const ct::TimePoint e = base_ + 1000;
    jobs_ = new an::JobTable();
    errors_ = new std::vector<an::CoalescedError>();
    std::uint64_t id = 0;
    const auto job = [&](ct::TimePoint start, ct::TimePoint end,
                         bool fails, std::vector<gx::GpuId> gpus) {
      gpures::slurm::JobRecord rec;
      rec.id = ++id;
      rec.name = "job";
      rec.start = start;
      rec.end = end;
      rec.gpus = static_cast<std::int32_t>(gpus.size());
      rec.state = fails ? gpures::slurm::JobState::kFailed
                        : gpures::slurm::JobState::kCompleted;
      rec.gpu_list = std::move(gpus);
      jobs_->add(rec);
    };
    const auto error = [&](ct::TimePoint t, gx::GpuId gpu, int xid) {
      an::CoalescedError err;
      err.time = t;
      err.last = t;
      err.gpu = gpu;
      err.code = static_cast<gx::Code>(xid);
      err.raw_xid = static_cast<std::uint16_t>(xid);
      errors_->push_back(err);
    };
    // One failed job with an error at every boundary, one family each.
    job(s, e, true, {{0, 0}});
    error(s, {0, 0}, 31);                // at start: not attributed
    error(s + 1, {0, 0}, 48);            // first attributed second
    error(e - kWindow - 1, {0, 0}, 63);  // run, not window
    error(e - kWindow, {0, 0}, 64);      // window edge
    error(e, {0, 0}, 74);                // at end: run and window
    error(e + 1, {0, 0}, 79);            // after end: not attributed
    // Equal end times: same GPU and a neighbour, failed and completed.
    job(s + 900, e, false, {{0, 0}});
    job(s + 500, e, true, {{0, 1}});
    error(e, {0, 1}, 94);
    error(s + 500, {0, 1}, 95);
    // Error on an unallocated GPU of the job's node: node-level only.
    job(s + 200, s + 5000, true, {{1, 0}, {1, 1}});
    error(s + 4990, {1, 2}, 119);
    error(s + 4995, {1, 2}, 13);  // not a reported family
    // A long job that windows starting at `s` cut through.
    job(s - 50000, s + 200000, true, {{2, 3}});
    error(s - 40000, {2, 3}, 31);
    error(s + 100, {2, 3}, 63);
    error(s + 199990, {2, 3}, 79);
    // A wide job on the 8-GPU node (spilled GPU list).
    std::vector<gx::GpuId> wide;
    for (int slot = 0; slot < 8; ++slot) wide.push_back({4, slot});
    job(s + 10, s + 3000, true, wide);
    error(s + 2990, {4, 7}, 122);
    error(s + 20, {4, 2}, 120);

    hand_jobs_ = new an::JobTable(*jobs_);
    hand_errors_ = new std::vector<an::CoalescedError>(*errors_);

    // The seeded crowd: times drawn from the boundaries above and nearby.
    ct::Rng rng = ct::Rng(41).fork("impact-edges");
    std::vector<ct::TimePoint> anchors;
    for (const auto& j : jobs_->jobs) {
      anchors.insert(anchors.end(), {j.start, j.start + 1, j.end,
                                     j.end - kWindow, j.end - kWindow - 1});
    }
    const auto near = [&] {
      const auto a = anchors[rng.uniform_u64(anchors.size())];
      return a + static_cast<ct::TimePoint>(rng.uniform_u64(41)) - 20;
    };
    const auto any_gpu = [&]() -> gx::GpuId {
      const auto node = static_cast<std::int32_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(topo_->node_count())));
      return {node, static_cast<std::int32_t>(rng.uniform_u64(
                        static_cast<std::uint64_t>(topo_->gpus_on_node(node))))};
    };
    constexpr int kXids[] = {31, 48, 63, 64, 74, 79, 94, 95, 119, 122, 13};
    for (int i = 0; i < 300; ++i) {
      const auto start = near();
      const auto end = start + static_cast<ct::Duration>(rng.uniform_u64(3000));
      std::vector<gx::GpuId> gpus{any_gpu()};
      if (rng.uniform() < 0.3) gpus.push_back(any_gpu());
      job(start, end, rng.uniform() < 0.4, gpus);
      anchors.insert(anchors.end(), {start, end, end - kWindow});
    }
    for (int i = 0; i < 400; ++i) {
      error(near(), any_gpu(), kXids[rng.uniform_u64(std::size(kXids))]);
    }
    std::sort(errors_->begin(), errors_->end(),
              [](const an::CoalescedError& a, const an::CoalescedError& b) {
                return a.time < b.time;
              });

    dir_ = fs::temp_directory_path() /
           ("gpures_idx_sweep_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    reader_ = new ix::IndexReader(open_index("edges.idx", *jobs_, *errors_));
    hand_reader_ = new ix::IndexReader(
        open_index("hand.idx", *hand_jobs_, *hand_errors_));
    empty_jobs_ = new an::JobTable();
    no_jobs_reader_ = new ix::IndexReader(
        open_index("no_jobs.idx", *empty_jobs_, *errors_));
  }

  static ix::IndexReader open_index(
      const std::string& name, const an::JobTable& jobs,
      const std::vector<an::CoalescedError>& errors) {
    ix::IndexBuildInput in;
    in.periods = periods_;
    in.attribution_window = kWindow;
    in.topo = topo_;
    in.errors = &errors;
    in.jobs = &jobs;
    const std::vector<an::Unavailability> none;
    in.unavailability = &none;
    const auto path = (dir_ / name).string();
    const auto wrote = ix::write_index(in, path);
    if (!wrote.ok()) throw std::runtime_error(wrote.error().message);
    return ix::IndexReader::open(path).take();
  }

  static void TearDownTestSuite() {
    delete reader_;
    delete hand_reader_;
    delete no_jobs_reader_;
    delete jobs_;
    delete hand_jobs_;
    delete empty_jobs_;
    delete errors_;
    delete hand_errors_;
    delete topo_;
    reader_ = hand_reader_ = no_jobs_reader_ = nullptr;
    jobs_ = hand_jobs_ = empty_jobs_ = nullptr;
    errors_ = hand_errors_ = nullptr;
    topo_ = nullptr;
    fs::remove_all(dir_);
  }

  /// Both modes, at the recorded window and two overrides.
  static void expect_matches(const ix::IndexReader& r,
                             const std::vector<ix::Predicate>& preds) {
    for (const bool node_level : {false, true}) {
      for (const ct::Duration w : {kWindow, ct::Duration{0}, ct::Duration{600}}) {
        auto engine = uncached_engine(r, node_level, w);
        for (const auto& p : preds) {
          expect_same_impact(engine.impact(p),
                             binary_search_join(r, p, w, node_level), p,
                             node_level);
        }
      }
    }
  }

  static ix::Predicate window(ct::TimePoint from, ct::TimePoint to) {
    ix::Predicate p;
    p.from = from;
    p.to = to;
    return p;
  }

  static gpures::cluster::Topology* topo_;
  static an::StudyPeriods periods_;
  static ct::TimePoint base_;
  static an::JobTable* jobs_;
  static an::JobTable* hand_jobs_;
  static an::JobTable* empty_jobs_;
  static std::vector<an::CoalescedError>* errors_;
  static std::vector<an::CoalescedError>* hand_errors_;
  static ix::IndexReader* reader_;
  static ix::IndexReader* hand_reader_;
  static ix::IndexReader* no_jobs_reader_;
  static fs::path dir_;
};

gpures::cluster::Topology* ImpactSweepEdges::topo_ = nullptr;
an::StudyPeriods ImpactSweepEdges::periods_;
ct::TimePoint ImpactSweepEdges::base_ = 0;
an::JobTable* ImpactSweepEdges::jobs_ = nullptr;
an::JobTable* ImpactSweepEdges::hand_jobs_ = nullptr;
an::JobTable* ImpactSweepEdges::empty_jobs_ = nullptr;
std::vector<an::CoalescedError>* ImpactSweepEdges::errors_ = nullptr;
std::vector<an::CoalescedError>* ImpactSweepEdges::hand_errors_ = nullptr;
ix::IndexReader* ImpactSweepEdges::reader_ = nullptr;
ix::IndexReader* ImpactSweepEdges::hand_reader_ = nullptr;
ix::IndexReader* ImpactSweepEdges::no_jobs_reader_ = nullptr;
fs::path ImpactSweepEdges::dir_;

}  // namespace

TEST_F(ImpactSweepEdges, BoundaryErrorsAttributeExactlyAsTheJoin) {
  const ct::TimePoint s = base_;
  const ct::TimePoint e = base_ + 1000;
  // On the hand-placed jobs alone, device level: the failed first job sees
  // {48, 63, 64, 74} during its run and {64, 74} in its final window; the
  // completed job on its GPU (from s + 900) sees {63, 64, 74}; the failed
  // job on GPU 1 sees only 94 (95 lands on its start second).
  auto engine = uncached_engine(*hand_reader_, false);
  ix::Predicate p = window(s, e + 1);
  p.node = 0;
  const std::vector<std::tuple<std::uint16_t, std::uint64_t, std::uint64_t>>
      want = {{31, 0, 0}, {48, 1, 0}, {63, 2, 0}, {64, 2, 1},
              {74, 2, 1}, {79, 0, 0}, {94, 1, 1}, {95, 0, 0}};
  for (const auto& [xid, encountering, failed] : want) {
    p.xid = xid;
    const auto got = engine.impact(p);
    ASSERT_EQ(got.rows.size(), 1u);
    EXPECT_EQ(got.rows[0].encountering_jobs, encountering) << "xid " << xid;
    EXPECT_EQ(got.rows[0].failed_jobs, failed) << "xid " << xid;
  }

  for (const auto* r : {hand_reader_, reader_}) {
    expect_matches(*r, {
                           window(e, e + 1),
                           window(s, e + 1),
                           window(e - kWindow, e + 1),
                           window(e - kWindow + 1, e + 1),
                           window(s + 1, s + 200001),
                           window(periods_.pre.begin, periods_.op.end),
                       });
  }
}

TEST_F(ImpactSweepEdges, WindowsStartingInsideRunningJobs) {
  // `from` cuts the long job (and others) mid-run: errors before it drop out.
  std::vector<ix::Predicate> preds;
  for (const ct::Duration cut : {-40000, -39999, 0, 1, 100, 101, 5000}) {
    preds.push_back(window(base_ + cut, base_ + 200001));
    preds.push_back(window(base_ + cut, base_ + 3001));
  }
  expect_matches(*reader_, preds);
}

TEST_F(ImpactSweepEdges, NodeAndXidPredicates) {
  std::vector<ix::Predicate> preds;
  const auto whole = window(periods_.pre.begin, periods_.op.end);
  for (std::int32_t node = 0; node < topo_->node_count(); ++node) {
    for (const std::optional<std::uint16_t> xid :
         {std::optional<std::uint16_t>{}, std::optional<std::uint16_t>{63},
          std::optional<std::uint16_t>{120}, std::optional<std::uint16_t>{13},
          std::optional<std::uint16_t>{777}}) {
      auto p = whole;
      p.node = node;
      p.xid = xid;
      preds.push_back(p);
      p.from = base_;
      p.to = base_ + 1001;
      preds.push_back(p);
    }
  }
  expect_matches(*reader_, preds);
}

TEST_F(ImpactSweepEdges, EmptyWindowsAndAnIndexWithoutJobs) {
  const ct::TimePoint e = base_ + 1000;
  const std::vector<ix::Predicate> preds = {
      window(e, e),                   // from == to
      window(e + 1, e + 1),
      window(periods_.op.end - 10, periods_.op.end),  // no job ends here
      window(periods_.pre.begin, periods_.pre.begin + 1),
      window(periods_.pre.begin, periods_.op.end),
  };
  expect_matches(*reader_, preds);
  expect_matches(*no_jobs_reader_, preds);
  auto engine = uncached_engine(*no_jobs_reader_, false);
  const auto got = engine.impact(preds.back());
  EXPECT_EQ(got.jobs_analyzed, 0u);
  for (const auto& row : got.rows) EXPECT_EQ(row.encountering_jobs, 0u);
}

TEST_F(ImpactSweepEdges, TwoHundredMixedCallsOnOneEngine) {
  // Random windows anchored on job boundaries, node and XID filters, and
  // verbs interleaved, all on one uncached engine per mode.
  constexpr std::uint16_t kXids[] = {31, 63, 79, 119, 120, 122, 13};
  for (const bool node_level : {false, true}) {
    auto engine = uncached_engine(*reader_, node_level);
    ct::Rng rng = ct::Rng(node_level ? 7 : 5).fork("mixed");
    const auto& jobs = jobs_->jobs;
    for (int i = 0; i < 200; ++i) {
      const auto& a = jobs[rng.uniform_u64(jobs.size())];
      const auto& b = jobs[rng.uniform_u64(jobs.size())];
      auto p = window(std::min(a.start, b.end) +
                          static_cast<ct::TimePoint>(rng.uniform_u64(3)) - 1,
                      std::max(a.start, b.end) +
                          static_cast<ct::TimePoint>(rng.uniform_u64(3)) - 1);
      if (rng.uniform() < 0.1) p.to = p.from;
      if (rng.uniform() < 0.4) {
        p.node = static_cast<std::int32_t>(rng.uniform_u64(
            static_cast<std::uint64_t>(topo_->node_count())));
      }
      if (rng.uniform() < 0.4) p.xid = kXids[rng.uniform_u64(std::size(kXids))];
      if (i % 3 == 0) engine.count(p);
      expect_same_impact(engine.impact(p),
                         binary_search_join(*reader_, p,
                                            engine.effective_window(),
                                            node_level),
                         p, node_level);
    }
  }
}
