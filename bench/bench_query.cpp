// Serving-layer benchmarks backing the index performance gates:
//  * index build (serialize) and cold open (map + full verification);
//  * XXH64 over the artifact's bytes — the floor any verifying open pays;
//  * indexed query throughput at 1/4/8 reader threads over one shared
//    mapping, cache off (so the number is the binary-search scan itself);
//  * a whole-study impact call (the end-ordered exposure sweep over every
//    job);
//  * the full-pipeline recompute baseline — what answering the same
//    question costs without the artifact (re-ingest + re-coalesce + scan).
// CI asserts indexed count queries are >= 10x faster than the recompute
// baseline, and that a cold open costs a bounded multiple of hashing the
// file (both ratios of times from one run, so neither depends on the host).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/availability.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/rng.h"
#include "index/query.h"
#include "index/reader.h"
#include "index/writer.h"
#include "logsys/syslog.h"
#include "slurm/accounting.h"

namespace {

using namespace gpures;
namespace fs = std::filesystem;

constexpr int kDays = 10;
constexpr int kJobs = 20000;
constexpr std::uint64_t kSeed = 77;

// One synthetic day of XID + lifecycle traffic, deterministic per (seed, d).
std::string make_day_text(const cluster::Topology& topo, common::TimePoint day,
                          common::Rng& rng) {
  constexpr std::uint16_t kCodes[] = {31, 48, 63, 74, 79, 94, 119, 122};
  std::string text;
  common::TimePoint t = day;
  for (int i = 0; i < 400; ++i) {
    t += static_cast<common::Duration>(rng.uniform_u64(200));
    const auto node = static_cast<std::int32_t>(rng.uniform_u64(
        static_cast<std::uint64_t>(topo.node_count())));
    const auto& name = topo.node(node).name;
    const double what = rng.uniform();
    if (what < 0.85) {
      const auto slot = static_cast<std::int32_t>(rng.uniform_u64(
          static_cast<std::uint64_t>(topo.gpus_on_node(node))));
      const auto code = static_cast<xid::Code>(
          kCodes[rng.uniform_u64(std::size(kCodes))]);
      text += logsys::render_xid_line(t, name, topo.pci_bus({node, slot}),
                                      code, "bench");
    } else if (what < 0.92) {
      text += logsys::render_drain_line(t, name);
    } else {
      text += logsys::render_resume_line(t, name);
    }
    text += '\n';
  }
  return text;
}

/// A seeded accounting stream over the corpus days: 1-4 GPUs on one node,
/// runs of one minute to six hours, one job in ten failing.
void ingest_jobs(analysis::AnalysisPipeline& pipe,
                 const cluster::Topology& topo, common::TimePoint day0) {
  common::Rng rng = common::Rng(kSeed).fork("jobs");
  for (int j = 0; j < kJobs; ++j) {
    slurm::JobRecord rec;
    rec.id = static_cast<slurm::JobId>(j) + 1;
    rec.name = "bench";
    rec.start = day0 + static_cast<common::Duration>(
                           rng.uniform_u64(kDays * common::kDay));
    rec.submit = rec.start;
    rec.end = rec.start + 60 +
              static_cast<common::Duration>(rng.uniform_u64(6 * 3600));
    rec.state = rng.uniform() < 0.1 ? slurm::JobState::kFailed
                                    : slurm::JobState::kCompleted;
    const auto node = static_cast<std::int32_t>(rng.uniform_u64(
        static_cast<std::uint64_t>(topo.node_count())));
    rec.gpus = 1 + static_cast<std::int32_t>(rng.uniform_u64(4));
    rec.node_list = {node};
    for (std::int32_t slot = 0; slot < rec.gpus; ++slot) {
      rec.gpu_list.push_back({node, slot});
    }
    pipe.ingest_accounting_line(slurm::to_accounting_line(rec, topo));
  }
}

void ingest_corpus(analysis::AnalysisPipeline& pipe,
                   const cluster::Topology& topo) {
  common::Rng rng(kSeed);
  const auto day0 = common::make_date(2023, 2, 1);
  for (int d = 0; d < kDays; ++d) {
    pipe.ingest_log_text(day0 + d * common::kDay,
                         make_day_text(topo, day0 + d * common::kDay, rng));
  }
  ingest_jobs(pipe, topo, day0);
  pipe.finish();
}

/// Shared fixture state: the corpus run once, its artifact on disk once.
struct Shared {
  cluster::Topology topo{cluster::ClusterSpec::delta_a100()};
  analysis::PipelineConfig cfg;
  analysis::AnalysisPipeline pipe{topo, cfg};
  analysis::AvailabilityStats avail;
  std::string path;

  Shared() {
    ingest_corpus(pipe, topo);
    avail = pipe.availability();
    const auto dir = fs::temp_directory_path() / "gpures_bench_query";
    fs::create_directories(dir);
    path = (dir / "gpures.idx").string();
    const auto wrote = index::write_index(input(), path);
    if (!wrote.ok()) throw std::runtime_error(wrote.error().message);
  }

  index::IndexBuildInput input() const {
    index::IndexBuildInput in;
    in.periods = cfg.periods;
    in.attribution_window = cfg.attribution_window;
    in.attribution = cfg.attribution;
    in.topo = &topo;
    in.errors = &pipe.errors();
    in.jobs = &pipe.jobs();
    in.unavailability = &avail.intervals;
    return in;
  }
};

Shared& shared() {
  static Shared s;
  return s;
}

/// The predicate every throughput benchmark asks, varied per iteration so a
/// result cache could not trivialize the number anyway.
index::Predicate nth_predicate(const index::IndexMeta& meta, std::uint64_t i) {
  index::Predicate p;
  const auto begin = meta.periods.pre.begin;
  const auto span = meta.periods.op.end - begin;
  p.from = begin + static_cast<std::int64_t>((i * 7919) % (span / 2));
  p.to = p.from + span / 3;
  p.node = static_cast<std::int32_t>(i % meta.node_count);
  p.xid = 63;
  return p;
}

void BM_IndexBuild(benchmark::State& state) {
  auto& s = shared();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto out = index::serialize_index(s.input());
    if (!out.ok()) state.SkipWithError(out.error().message.c_str());
    bytes = out.value().size();
    benchmark::DoNotOptimize(out.value().data());
  }
  state.counters["artifact_bytes"] = static_cast<double>(bytes);
  state.counters["errors"] = static_cast<double>(s.pipe.errors().size());
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMicrosecond);

void BM_ColdOpen(benchmark::State& state) {
  auto& s = shared();
  for (auto _ : state) {
    auto reader = index::IndexReader::open(s.path);
    if (!reader.ok()) state.SkipWithError(reader.error().message.c_str());
    benchmark::DoNotOptimize(reader.value().meta().error_count);
  }
}
BENCHMARK(BM_ColdOpen)->Unit(benchmark::kMicrosecond);

void BM_HashIndexBytes(benchmark::State& state) {
  // XXH64 over every byte of the artifact: what verifying its checksums
  // costs at the least, and the denominator of the cold-open gate.
  auto bytes = common::read_file(shared().path);
  if (!bytes.ok()) throw std::runtime_error(bytes.error().message);
  const std::string file = std::move(bytes).take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::xxhash64(file.data(), file.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(file.size()));
}
BENCHMARK(BM_HashIndexBytes)->Unit(benchmark::kMicrosecond);

void BM_QueryCount(benchmark::State& state) {
  auto& s = shared();
  // One reader + engine shared by all benchmark threads, cache disabled:
  // this measures the mapped binary-search scan, not memoization.
  static index::IndexReader* reader = nullptr;
  static index::QueryEngine* engine = nullptr;
  if (state.thread_index() == 0 && reader == nullptr) {
    auto opened = index::IndexReader::open(s.path);
    if (!opened.ok()) throw std::runtime_error(opened.error().message);
    reader = new index::IndexReader(std::move(opened).take());
    index::QueryOptions opts;
    opts.cache_capacity = 0;
    engine = new index::QueryEngine(*reader, opts);
  }
  std::uint64_t i = static_cast<std::uint64_t>(state.thread_index()) * 1000;
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    const auto r = engine->count(nth_predicate(reader->meta(), i++));
    checksum += r.count;
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCount)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8);

void BM_QueryImpact(benchmark::State& state) {
  auto& s = shared();
  auto opened = index::IndexReader::open(s.path);
  if (!opened.ok()) throw std::runtime_error(opened.error().message);
  const auto reader = std::move(opened).take();
  index::QueryOptions opts;
  opts.cache_capacity = 0;
  index::QueryEngine engine(reader, opts);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto r = engine.impact(nth_predicate(reader.meta(), i++));
    benchmark::DoNotOptimize(r.jobs_analyzed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryImpact)->Unit(benchmark::kMicrosecond);

void BM_QueryImpactWhole(benchmark::State& state) {
  // The whole study, no node predicate: every job's exposure in one sweep.
  auto& s = shared();
  auto opened = index::IndexReader::open(s.path);
  if (!opened.ok()) throw std::runtime_error(opened.error().message);
  const auto reader = std::move(opened).take();
  index::QueryOptions opts;
  opts.cache_capacity = 0;
  index::QueryEngine engine(reader, opts);
  const index::Predicate whole = engine.whole_period();
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const auto r = engine.impact(whole);
    jobs = r.jobs_analyzed;
    benchmark::DoNotOptimize(jobs);
  }
  state.counters["jobs"] = static_cast<double>(jobs);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_QueryImpactWhole)->Unit(benchmark::kMicrosecond);

void BM_RecomputeCount(benchmark::State& state) {
  // The no-index baseline: answering one count predicate means re-running
  // Stage I+II over the raw corpus, then scanning the coalesced errors.
  auto& s = shared();
  common::Rng text_rng(kSeed);
  const auto day0 = common::make_date(2023, 2, 1);
  std::vector<std::string> days;
  for (int d = 0; d < kDays; ++d) {
    days.push_back(make_day_text(s.topo, day0 + d * common::kDay, text_rng));
  }
  auto opened = index::IndexReader::open(s.path);
  if (!opened.ok()) throw std::runtime_error(opened.error().message);
  const index::IndexMeta meta = opened.value().meta();
  std::uint64_t i = 0;
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    analysis::AnalysisPipeline pipe(s.topo, s.cfg);
    for (int d = 0; d < kDays; ++d) {
      pipe.ingest_log_text(day0 + d * common::kDay, days[d]);
    }
    pipe.finish();
    const auto p = nth_predicate(meta, i++);
    std::uint64_t count = 0;
    for (const auto& e : pipe.errors()) {
      if (e.time < p.from || e.time >= p.to) continue;
      if (e.gpu.node != *p.node) continue;
      if (xid::to_number(e.code) != *p.xid) continue;
      ++count;
    }
    checksum += count;
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecomputeCount)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
