// Serve-daemon benchmarks:
//
//  * drain-once ingestion (ServeSession tick loop + finalize, what both
//    gpures-analyze and gpures-serve --once run) at 0/4 worker threads;
//  * chunk-size sweep: small chunks mean more ticks (more scheduler and
//    directory-scan overhead) for identical results;
//  * checkpoint cost as the emitted state grows: each checkpoint appends a
//    segment of the rows emitted since the previous one plus a manifest, so
//    bytes per checkpoint should stay flat while the state grows; and
//    restoring a store whose state is spread over many segments.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "logsys/log_store.h"
#include "logsys/syslog.h"
#include "serve/checkpoint.h"
#include "serve/serve.h"
#include "slurm/accounting.h"

namespace {

using namespace gpures;
namespace fs = std::filesystem;

const common::TimePoint kDay0 = common::make_date(2023, 6, 1);
constexpr int kDays = 8;
constexpr int kLinesPerDay = 20000;

const cluster::Topology& topo() {
  static const cluster::Topology t{cluster::ClusterSpec::small(4, 0)};
  return t;
}

/// Build (once) a dataset big enough that ingestion dominates setup.
const fs::path& dataset() {
  static const fs::path dir = [] {
    const auto d = fs::temp_directory_path() / "gpures_bench_serve";
    fs::remove_all(d);
    analysis::DatasetManifest m;
    m.spec = cluster::ClusterSpec::small(4, 0);
    m.periods = analysis::StudyPeriods::make(kDay0, kDay0 + 2 * common::kDay,
                                             kDay0 + kDays * common::kDay);
    analysis::DatasetWriter w(d, m);
    common::Rng rng(42);
    constexpr std::uint16_t codes[] = {31, 48, 63, 79, 94, 95, 119, 120};
    for (int day = 0; day < kDays; ++day) {
      const auto start = kDay0 + day * common::kDay;
      std::vector<logsys::RawLine> lines;
      lines.reserve(kLinesPerDay);
      for (int i = 0; i < kLinesPerDay; ++i) {
        const auto t = start + static_cast<common::Duration>(
                                   rng.uniform_u64(common::kDay));
        const auto node = static_cast<std::int32_t>(rng.uniform_u64(4));
        const auto& host = topo().node(node).name;
        if (rng.uniform() < 0.6) {
          const auto slot = static_cast<std::int32_t>(rng.uniform_u64(4));
          const auto code = static_cast<xid::Code>(
              codes[rng.uniform_u64(std::size(codes))]);
          lines.push_back(
              {t, logsys::render_xid_line(t, host, topo().pci_bus({node, slot}),
                                          code, "bench")});
        } else {
          lines.push_back({t, logsys::render_noise_line(rng, t, host)});
        }
      }
      std::sort(lines.begin(), lines.end(),
                [](const logsys::RawLine& a, const logsys::RawLine& b) {
                  return a.time < b.time;
                });
      w.write_day(start, lines);
    }
    w.write_accounting_line(slurm::accounting_header());
    for (int j = 0; j < 500; ++j) {
      slurm::JobRecord rec;
      rec.id = static_cast<slurm::JobId>(1000 + j);
      rec.name = "job" + std::to_string(j);
      rec.submit = kDay0 + j * 120;
      rec.start = rec.submit + 30;
      rec.end = rec.start + 1800;
      rec.gpus = 1;
      rec.nodes = 1;
      rec.node_list = {j % 4};
      rec.gpu_list = {{j % 4, j % 4}};
      w.write_accounting_line(slurm::to_accounting_line(rec, topo()));
    }
    const auto st = w.finalize();
    if (!st.ok()) std::abort();
    return d;
  }();
  return dir;
}

void run_serve(std::uint32_t threads, std::uint64_t chunk_bytes,
               benchmark::State& state) {
  std::uint64_t errors = 0;
  for (auto _ : state) {
    serve::ServeConfig cfg;
    cfg.data_dir = dataset();
    cfg.threads = threads;
    cfg.max_chunk_bytes = chunk_bytes;
    serve::ServeSession s(std::move(cfg));
    if (!s.open(false).ok()) std::abort();
    if (!s.drain().ok()) std::abort();
    errors = s.errors().size();
    benchmark::DoNotOptimize(errors);
  }
  state.counters["errors"] = static_cast<double>(errors);
}

void BM_ServeOnce(benchmark::State& state) {
  run_serve(static_cast<std::uint32_t>(state.range(0)), 4 << 20, state);
}
BENCHMARK(BM_ServeOnce)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ServeChunkSweep(benchmark::State& state) {
  run_serve(0, static_cast<std::uint64_t>(state.range(0)), state);
}
BENCHMARK(BM_ServeChunkSweep)
    ->Arg(16 << 10)
    ->Arg(256 << 10)
    ->Arg(4 << 20)
    ->Unit(benchmark::kMillisecond);

/// `n` synthetic errors starting at `first`.
std::vector<analysis::CoalescedError> synthetic_errors(std::int64_t first,
                                                       std::int64_t n) {
  common::Rng rng(static_cast<std::uint64_t>(first) + 7);
  std::vector<analysis::CoalescedError> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = first; i < first + n; ++i) {
    analysis::CoalescedError e;
    e.time = kDay0 + i;
    e.last = e.time + 5;
    e.gpu = {static_cast<std::int32_t>(rng.uniform_u64(4)),
             static_cast<std::int32_t>(rng.uniform_u64(4))};
    e.code = xid::Code::kGspRpcTimeout;
    e.raw_xid = 119;
    e.raw_lines = 3;
    out.push_back(e);
  }
  return out;
}

/// A manifest shaped like a daemon's mid-run one: kDays sources (all but the
/// last sealed) and a few open coalescer groups.
serve::CheckpointManifest synthetic_manifest() {
  serve::CheckpointManifest m;
  m.config_hash = 0xfeedface;
  m.tick = 1000;
  for (int day = 0; day < kDays; ++day) {
    serve::SourceSnapshot s;
    s.name = "syslog-2023-06-0" + std::to_string(day + 1) + ".log";
    s.date = kDay0 + day * common::kDay;
    s.offset = 1 << 20;
    s.lines_seen = kLinesPerDay;
    s.existed = true;
    s.sealed = day + 1 < kDays;
    m.sources.push_back(std::move(s));
  }
  m.coalescer.open = synthetic_errors(0, 16);
  return m;
}

/// Appends checkpoints to a store the way ServeSession does.
struct Appender {
  serve::CheckpointStore store;
  serve::CheckpointManifest manifest = synthetic_manifest();
  serve::EmittedRows rows;
  std::uint64_t state_bytes = 0;  ///< segment bytes written so far

  explicit Appender(const fs::path& dir) : store(dir) {}

  /// Emit `n` more errors and checkpoint; returns the bytes written.
  std::uint64_t checkpoint(std::int64_t n) {
    auto more =
        synthetic_errors(static_cast<std::int64_t>(rows.errors.size()), n);
    rows.errors.insert(rows.errors.end(), more.begin(), more.end());
    const std::uint64_t seq = manifest.seq + 1;
    auto ref = store.write_segment(
        seq, serve::SegmentRows::since(rows, manifest.emitted));
    if (!ref.ok()) std::abort();
    manifest.seq = seq;
    manifest.emitted = rows.counts();
    manifest.segments.push_back(ref.value());
    auto written = store.write_manifest(manifest);
    if (!written.ok()) std::abort();
    state_bytes += ref.value().bytes;
    return ref.value().bytes + written.value();
  }
};

constexpr std::int64_t kErrorsPerCheckpoint = 500;

/// A fixed run of 64 checkpoints, each emitting kErrorsPerCheckpoint errors,
/// on top of range(0) errors already checkpointed: bytes per checkpoint
/// must not grow with the state.
void BM_CheckpointAppend(benchmark::State& state) {
  const auto dir = fs::temp_directory_path() / "gpures_bench_serve_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Appender a(dir);
  a.checkpoint(state.range(0));
  std::uint64_t written = 0, checkpoints = 0;
  for (auto _ : state) {
    written += a.checkpoint(kErrorsPerCheckpoint);
    ++checkpoints;
  }
  state.counters["bytes_per_ckpt"] =
      static_cast<double>(written) / static_cast<double>(checkpoints);
  state.counters["state_bytes"] = static_cast<double>(a.state_bytes);
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointAppend)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Iterations(64)
    ->Unit(benchmark::kMicrosecond);

/// Restore a store holding range(0) errors spread over 16 segments: every
/// segment is read and hash-checked before any is parsed.
void BM_CheckpointLoad(benchmark::State& state) {
  const auto dir = fs::temp_directory_path() / "gpures_bench_serve_load";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Appender a(dir);
  for (int i = 0; i < 16; ++i) a.checkpoint(state.range(0) / 16);
  for (auto _ : state) {
    auto loaded = a.store.load_latest(nullptr);
    if (!loaded.ok() || !loaded.value().has_value()) std::abort();
    benchmark::DoNotOptimize(loaded.value()->rows.errors.size());
  }
  state.counters["state_bytes"] = static_cast<double>(a.state_bytes);
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointLoad)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
