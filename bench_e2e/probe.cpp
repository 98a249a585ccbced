// e2e_probe: the in-process half of the end-to-end benchmark (see run.py).
//
//   e2e_probe query --index FILE --seed N --queries N --opens N --out FILE
//   e2e_probe trace --data DIR --work DIR --seed N --queries N --opens N
//                   --trace-out FILE --counts-out FILE
//                   [--quick] [--nodes N] [--scale F] [--noise N] [--no-jobs]
//
// `query` is the query phase of an untraced run.  It times
// IndexReader::open (the fixed cost of every gpures-query call) and a seeded
// mix of QueryEngine calls, then replays the mix with the cache off: caching
// must never change an answer.
//
// `trace` replays the chain simulate -> analyze (4 threads, then serial) ->
// query -> serve in-process.  It calls each layer's public functions in the
// order the CLI tools call them and records a span around every call, one
// phase per tool.  The spans go out as Chrome Trace Event JSON and the layer
// counts as a flat JSON object; run.py derives the per-layer metrics from
// the two files.  The simulation flags mirror gpures-simulate, and `--data`
// receives the dataset the traced setup writes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/dataset.h"
#include "analysis/export.h"
#include "analysis/mitigation.h"
#include "analysis/pipeline.h"
#include "analysis/reports.h"
#include "analysis/survival.h"
#include "analysis/trends.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/strings.h"
#include "index/query.h"
#include "index/reader.h"
#include "index/writer.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "slurm/accounting.h"

using namespace gpures;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "e2e_probe: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T unwrap(common::Result<T>&& r, const char* what) {
  if (!r.ok()) die(std::string(what) + ": " + r.error().message);
  return std::move(r).take();
}

void check(const common::Status& st, const char* what) {
  if (!st.ok()) die(std::string(what) + ": " + st.error().message);
}

// --- spans -------------------------------------------------------------------

/// Spans kept in memory and written once at exit.  A phase is a root span
/// with its own id; every other span's parent is the innermost open span.
class Recorder {
 public:
  int begin(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (parent < 0) ++phase_;
    spans_.push_back(Span{std::move(name), parent, phase_, now_us(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (stack_.empty() || stack_.back() != id) die("span end out of order");
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }
  void rename(int id, std::string name) {
    spans_[static_cast<std::size_t>(id)].name = std::move(name);
  }

  /// Chrome Trace Event JSON: complete ("X") events, one tid per phase, the
  /// span id and parent id in args.
  std::string to_chrome_json() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[512];
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      if (s.parent < 0) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                      first ? "" : ",\n", s.phase, s.name.c_str());
        out += buf;
        first = false;
      }
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d}}",
                    first ? "" : ",\n", s.name.c_str(),
                    s.parent < 0 ? "phase" : "layer", s.phase, s.start_us,
                    s.end_us - s.start_us, i, s.parent);
      out += buf;
      first = false;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int phase = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int phase_ = 0;
};

class SpanGuard {
 public:
  SpanGuard(Recorder& rec, std::string name)
      : rec_(rec), id_(rec.begin(std::move(name))) {}
  ~SpanGuard() { rec_.end(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  int id() const { return id_; }

 private:
  Recorder& rec_;
  int id_;
};

/// Run `f` inside a span named `name` and return its result.
template <typename F>
decltype(auto) timed(Recorder& rec, const char* name, F&& f) {
  SpanGuard g(rec, name);
  return f();
}

/// Flat name -> number map written as one JSON object.
class Counts {
 public:
  template <typename T>
  void set(const std::string& name, T v) {
    values_[name] = static_cast<double>(v);
  }
  std::string to_json() const {
    std::string out = "{";
    char buf[64];
    for (const auto& [k, v] : values_) {
      if (out.size() > 1) out += ",";
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += "\n\"" + k + "\":" + buf;
    }
    return out + "\n}\n";
  }

 private:
  std::map<std::string, double> values_;
};

std::uint64_t family_total(const obs::MetricsRegistry& reg,
                           std::string_view family) {
  std::uint64_t total = 0;
  for (const auto& c : reg.snapshot().counters) {
    if (c.family == family) total += c.value;
  }
  return total;
}

// --- flags -------------------------------------------------------------------

struct Flags {
  std::map<std::string, std::string> values;
  bool has(const std::string& k) const { return values.count(k) != 0; }
  const std::string& str(const std::string& k) const {
    const auto it = values.find(k);
    if (it == values.end()) die("missing --" + k);
    return it->second;
  }
  long long num(const std::string& k) const {
    const long long v = common::parse_ll(str(k));
    if (v < 0) die("--" + k + " needs a non-negative integer");
    return v;
  }
};

Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) die("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    if (arg == "quick" || arg == "no-jobs") {
      f.values.emplace(arg, "");
    } else {
      if (i + 1 >= argc) die("--" + arg + " needs a value");
      f.values[arg] = argv[++i];
    }
  }
  return f;
}

// --- query mix ---------------------------------------------------------------

enum class Kind { kCount, kAvailability, kImpact };

struct Query {
  Kind kind = Kind::kCount;
  index::Predicate pred;
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCount: return "count";
    case Kind::kAvailability: return "availability";
    case Kind::kImpact: return "impact";
  }
  return "?";
}

/// A seeded mix with fixed proportions, so that only the predicates vary
/// with the seed: 50% count, 30% availability, 20% impact; windows of 0.1%,
/// 1%, 3.3% or 10% of the study (2% of queries span all of it), so the mix
/// reads the same share of the index on every workload; half the queries
/// pinned to one node, 40% of counts to one XID.  Window starts follow a
/// golden-ratio sequence from a seeded offset, so every seed spreads them
/// evenly over the study and the mix costs about the same.  Every third
/// query from the fourth on repeats one of the last 32 issued, which the
/// 64-entry LRU still holds.  The repeats come on top of the proportions,
/// so every seed issues the same kinds of call on the same window sizes;
/// a repeat never takes the place of one of the few whole-study calls.
std::vector<Query> make_mix(const index::IndexReader& reader,
                            std::uint64_t seed, std::size_t n) {
  const std::size_t repeats = n > 0 ? (n - 1) / 3 : 0;
  common::Rng rng(seed);
  const auto& periods = reader.meta().periods;
  const common::TimePoint begin = periods.pre.begin;
  const common::TimePoint end = periods.op.end;
  const common::Duration span = end - begin;
  const common::Duration windows[] = {span / 1000, span / 100, span / 30,
                                      span / 10};
  const auto xids = xid::report_order();
  const auto nodes = std::max<std::uint64_t>(1, reader.meta().node_count);
  const double offset = rng.uniform();
  constexpr double kGolden = 0.6180339887498949;

  std::vector<Query> fresh(n - repeats);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const std::size_t k = i % 10;
    Query& q = fresh[i];
    q.kind = k < 5 ? Kind::kCount : k < 8 ? Kind::kAvailability : Kind::kImpact;
    const std::size_t w = (i / 10) % 50;  // window class, 2% whole-study
    if (w == 0) {
      q.pred.from = begin;
      q.pred.to = end;
    } else {
      const auto len = windows[w % 4];
      const double u =
          std::fmod(offset + static_cast<double>(i) * kGolden, 1.0);
      q.pred.from = begin + static_cast<common::TimePoint>(
                                u * static_cast<double>(span - len));
      q.pred.to = q.pred.from + len;
    }
    if (i % 2 == 1) {
      q.pred.node = static_cast<std::int32_t>(rng.uniform_u64(nodes));
    }
    if (q.kind == Kind::kCount && (i / 10) % 5 < 2) {
      q.pred.xid = static_cast<std::uint16_t>(
          xids[rng.uniform_u64(xids.size())]);
    }
  }
  for (std::size_t i = fresh.size(); i-- > 1;) {
    std::swap(fresh[i], fresh[rng.uniform_u64(i + 1)]);
  }
  std::vector<Query> mix;
  mix.reserve(n);
  auto next = fresh.begin();
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= 3 && i % 3 == 0) {
      const auto back = rng.uniform_u64(std::min<std::size_t>(i, 32));
      const Query q = mix[i - 1 - back];
      mix.push_back(q);
    } else {
      mix.push_back(*next++);
    }
  }
  return mix;
}

/// Every field of an answer, exactly, so cached and uncached answers can be
/// compared as strings.
std::string run_query(index::QueryEngine& engine, const Query& q) {
  char buf[160];
  std::string out;
  switch (q.kind) {
    case Kind::kCount: {
      const auto r = engine.count(q.pred);
      std::snprintf(buf, sizeof buf, "%llu %.17g %.17g %.17g",
                    static_cast<unsigned long long>(r.count), r.window_hours,
                    r.mtbe_system_h, r.mtbe_per_node_h);
      out = buf;
      break;
    }
    case Kind::kAvailability: {
      const auto r = engine.availability(q.pred);
      std::snprintf(buf, sizeof buf, "%llu %.17g %.17g %.17g %.17g",
                    static_cast<unsigned long long>(r.intervals), r.hours_lost,
                    r.mttr_h, r.mttf_h, r.availability);
      out = buf;
      break;
    }
    case Kind::kImpact: {
      const auto r = engine.impact(q.pred);
      std::snprintf(buf, sizeof buf, "%llu %llu %llu",
                    static_cast<unsigned long long>(r.jobs_analyzed),
                    static_cast<unsigned long long>(r.failed_jobs_total),
                    static_cast<unsigned long long>(r.gpu_failed_jobs));
      out = buf;
      for (const auto& row : r.rows) {
        std::snprintf(buf, sizeof buf, "|%u %llu %llu %.17g %.17g %.17g",
                      static_cast<unsigned>(row.code),
                      static_cast<unsigned long long>(row.failed_jobs),
                      static_cast<unsigned long long>(row.encountering_jobs),
                      row.failure_probability, row.ci.lo, row.ci.hi);
        out += buf;
      }
      break;
    }
  }
  return out;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  char buf[48];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : ",", v[i]);
    out += buf;
  }
  return out + "]";
}

/// Opens the index `opens` times, runs the mix on a cached engine, then
/// replays it with the cache off.
int cmd_query(const Flags& f) {
  const auto t_phase = Clock::now();
  const std::string path = f.str("index");
  std::vector<double> open_ms;
  for (long long i = 1; i < f.num("opens"); ++i) {
    const auto t0 = Clock::now();
    unwrap(index::IndexReader::open(path), "open index");
    open_ms.push_back(seconds_since(t0) * 1e3);
  }
  const auto t0 = Clock::now();
  auto reader = unwrap(index::IndexReader::open(path), "open index");
  open_ms.push_back(seconds_since(t0) * 1e3);

  const auto mix = make_mix(reader, static_cast<std::uint64_t>(f.num("seed")),
                            static_cast<std::size_t>(f.num("queries")));
  index::QueryEngine cached(reader);
  std::vector<std::string> answers;
  std::vector<double> latency_ms;
  for (const auto& q : mix) {
    const auto tq = Clock::now();
    answers.push_back(run_query(cached, q));
    latency_ms.push_back(seconds_since(tq) * 1e3);
  }
  index::QueryOptions off;
  off.cache_capacity = 0;
  index::QueryEngine uncached(reader, off);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (run_query(uncached, mix[i]) != answers[i]) ++mismatches;
  }
  const auto whole = cached.count(cached.whole_period()).count;

  char buf[256];
  std::snprintf(buf, sizeof buf,
                ",\n\"queries\":%zu,\"mismatches\":%zu,\"whole_count\":%llu,"
                "\"phase_s\":%.6f}\n",
                mix.size(), mismatches, static_cast<unsigned long long>(whole),
                seconds_since(t_phase));
  const std::string out = "{\"open_ms\":" + json_list(open_ms) +
                          ",\n\"latency_ms\":" + json_list(latency_ms) + buf;
  check(common::write_file_atomic(f.str("out"), out), "write query result");
  return 0;
}

// --- traced chain ------------------------------------------------------------

/// The campaign configuration gpures-simulate builds from the same flags.
analysis::CampaignConfig campaign_config(const Flags& f) {
  auto cfg = analysis::CampaignConfig::delta_a100();
  if (f.has("quick")) cfg = analysis::CampaignConfig::quick();
  cfg.seed = static_cast<std::uint64_t>(f.num("seed"));
  cfg.noise_lines_per_day =
      f.has("noise") ? std::strtod(f.str("noise").c_str(), nullptr) : 200.0;
  cfg.with_jobs = !f.has("no-jobs");
  if (f.has("scale")) {
    cfg.workload_scale *= std::strtod(f.str("scale").c_str(), nullptr);
  }
  cfg.pipeline.num_threads = 4;
  if (f.has("nodes")) {
    const long long fleet = f.num("nodes");
    const auto nodes8 = static_cast<std::int32_t>(
        std::llround(static_cast<double>(fleet) * 6.0 / 106.0));
    const auto nodes4 = static_cast<std::int32_t>(fleet) - nodes8;
    const double base_gpus = cfg.spec.total_gpus();
    cfg.spec = cluster::ClusterSpec::scaled(nodes4, nodes8);
    const double ratio = cfg.spec.total_gpus() / base_gpus;
    cfg.faults.scale *= ratio;
    cfg.workload_scale *= ratio;
    const auto node_count = cfg.spec.node_count();
    std::erase_if(cfg.faults.uncontained_episodes,
                  [&](const auto& ep) { return ep.gpu.node >= node_count; });
    std::erase_if(cfg.faults.degraded_memory_episodes,
                  [&](const auto& ep) { return ep.gpu.node >= node_count; });
  }
  return cfg;
}

/// One simulation writing a dataset, as gpures-simulate runs it.
void simulate(Recorder& rec, const char* span, analysis::CampaignConfig cfg,
              const fs::path& dir, bool quick, Counts* counts) {
  obs::MetricsRegistry registry;
  cfg.metrics = &registry;
  analysis::DatasetManifest manifest;
  manifest.name = quick ? "delta-a100-quick" : "delta-a100-full";
  manifest.spec = cfg.spec;
  manifest.periods = analysis::StudyPeriods::make(
      cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);
  analysis::DatasetWriter writer(dir, manifest);
  {
    SpanGuard g(rec, span);
    analysis::DeltaCampaign campaign(cfg);
    campaign.set_dataset_writer(&writer);
    campaign.run();
  }
  timed(rec, "dataset.finalize",
        [&] { check(writer.finalize(), "finalize dataset"); });
  if (counts != nullptr) {
    counts->set("des.events_dispatched",
                family_total(registry, "des.events_dispatched"));
    counts->set("slurm.jobs_started",
                registry.counter_value("slurm.jobs_started"));
  }
}

/// The index build input both tools assemble from their analysis state.
template <typename S>
index::IndexBuildInput index_input(
    const S& src, const analysis::PipelineConfig& pcfg,
    const cluster::Topology& topo,
    const std::vector<analysis::Unavailability>& unavail) {
  index::IndexBuildInput in;
  in.periods = pcfg.periods;
  in.attribution_window = pcfg.attribution_window;
  in.attribution = pcfg.attribution;
  in.outlier_share = pcfg.outlier_share;
  in.outlier_min = pcfg.outlier_min;
  in.topo = &topo;
  in.errors = &src.errors();
  in.jobs = &src.jobs();
  in.unavailability = &unavail;
  return in;
}

/// The emit sequence of gpures-analyze / gpures-serve --report all
/// --write-index --export-json, with a span around every layer call.
/// `S` is AnalysisPipeline or ServeSession (same analysis accessors).
template <typename S>
void emit(Recorder& rec, const S& src, const analysis::PipelineConfig& pcfg,
          const cluster::Topology& topo, const fs::path& out_prefix) {
  std::string report;
  const bool has_jobs = !src.jobs().jobs.empty();
  const auto render = [&](auto&& fn) {
    timed(rec, "report.render", [&] { report += fn() + "\n"; });
  };
  const auto stage3 = [&](const char* name, auto&& fn) {
    return timed(rec, name, fn);
  };
  const auto error_stats = [&] { return src.error_stats(); };
  const auto job_impact = [&] { return src.job_impact(); };
  const auto job_stats = [&] { return src.job_stats(); };
  const auto availability = [&] { return src.availability(); };
  const auto mttf = [&] { return src.mttf_estimate_h(); };

  const auto stats = stage3("stage3.error_stats", error_stats);
  render([&] { return analysis::render_table1(stats); });
  render([&] { return analysis::render_findings(stats); });
  if (has_jobs) {
    const auto impact = stage3("stage3.job_impact", job_impact);
    render([&] { return analysis::render_table2(impact); });
    const auto js = stage3("stage3.job_stats", job_stats);
    render([&] { return analysis::render_table3(js); });
  }
  {
    const auto avail = stage3("stage3.availability", availability);
    const double mttf_h = stage3("stage3.availability", mttf);
    render([&] { return analysis::render_fig2(avail, mttf_h); });
  }
  render([&] {
    return analysis::render_trends(src.errors(), pcfg.periods, src.pool());
  });
  if (has_jobs) {
    analysis::JobImpactConfig icfg;
    icfg.window = pcfg.attribution_window;
    icfg.period = pcfg.periods.op;
    icfg.attribution = pcfg.attribution;
    render([&] {
      return analysis::render_mitigation(src.jobs(), src.errors(), icfg,
                                         src.pool());
    });
  }
  render([&] {
    return analysis::render_survival(src.errors(), pcfg.periods,
                                     topo.total_gpus(), src.pool());
  });
  {
    const auto avail = stage3("stage3.availability", availability);
    const auto in = index_input(src, pcfg, topo, avail.intervals);
    const auto bytes = timed(rec, "index.serialize", [&] {
      return unwrap(index::serialize_index(in), "serialize index");
    });
    timed(rec, "index.write", [&] {
      check(common::write_file_atomic(out_prefix.string() + ".idx", bytes),
            "write index");
    });
  }
  const auto impact = stage3("stage3.job_impact", job_impact);
  const auto js = stage3("stage3.job_stats", job_stats);
  const auto avail = stage3("stage3.availability", availability);
  const double mttf_h = stage3("stage3.availability", mttf);
  timed(rec, "report.render", [&] {
    analysis::ExportBundle bundle;
    bundle.error_stats = &stats;
    bundle.job_stats = &js;
    bundle.job_impact = &impact;
    bundle.availability = &avail;
    bundle.mttf_h = mttf_h;
    check(common::write_file_atomic(out_prefix.string() + ".json",
                                    analysis::to_json(bundle) + "\n"),
          "write export");
    check(common::write_file_atomic(out_prefix.string() + ".txt", report),
          "write report");
  });
}

/// gpures-analyze over `dir` at `threads`, one span per layer call.
void analyze(Recorder& rec, const char* phase, const fs::path& dir,
             std::uint32_t threads, const fs::path& out_prefix,
             Counts* counts) {
  SpanGuard root(rec, phase);
  analysis::PipelineConfig pcfg;
  pcfg.num_threads = threads;
  const auto manifest = timed(rec, "dataset.open", [&] {
    return unwrap(analysis::read_manifest(dir), "read manifest");
  });
  pcfg.periods = manifest.periods;
  cluster::Topology topo(manifest.spec);
  analysis::AnalysisPipeline pipe(topo, pcfg);

  struct DayFile {
    fs::path path;
    common::TimePoint date;
  };
  const auto days = timed(rec, "dataset.open", [&] {
    std::vector<DayFile> out;
    for (const auto& e : fs::directory_iterator(dir / "syslog")) {
      const auto date = analysis::day_file_date(e.path().filename().string());
      if (date && e.is_regular_file()) out.push_back({e.path(), *date});
    }
    std::sort(out.begin(), out.end(), [](const DayFile& a, const DayFile& b) {
      return a.path < b.path;
    });
    return out;
  });
  std::uint64_t day_bytes = 0;
  for (const auto& d : days) {
    auto text = timed(rec, "io.day_read", [&] {
      return unwrap(common::read_file(d.path.string()), "read day file");
    });
    day_bytes += text.size();
    logsys::ScreenCounts sc;
    auto buf = timed(rec, "logsys.screen", [&] {
      return logsys::DayBuffer::from_text(d.date, std::move(text),
                                          logsys::LineScreen{}, sc);
    });
    if (sc.quarantined_lines() > 0) die("corrupt line in " + d.path.string());
    timed(rec, "stage1.ingest",
          [&] { pipe.ingest_day(d.date, std::move(buf)); });
  }

  std::uint64_t acct_bytes = 0;
  std::uint64_t rows = 0;
  std::uint64_t rejected = 0;
  const auto acct_path = dir / "slurm_accounting.txt";
  if (fs::exists(acct_path)) {
    const auto text = timed(rec, "accounting.read", [&] {
      return unwrap(common::read_file(acct_path.string()), "read accounting");
    });
    acct_bytes = text.size();
    timed(rec, "accounting.ingest", [&] {
      const std::string header = slurm::accounting_header();
      std::size_t start = 0;
      while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        const std::size_t stop = nl == std::string::npos ? text.size() : nl;
        const auto line = std::string_view(text).substr(start, stop - start);
        const auto trimmed = common::trim(line);
        if (!pipe.ingest_accounting_line(line)) {
          ++rejected;
        } else if (!trimmed.empty() && trimmed != header) {
          ++rows;
        }
        if (nl == std::string::npos) break;
        start = nl + 1;
      }
    });
  }
  timed(rec, "pipeline.finish", [&] { pipe.finish(); });
  emit(rec, pipe, pcfg, topo, out_prefix);

  if (counts != nullptr) {
    const auto c = pipe.counters();
    counts->set("io.day_bytes", day_bytes);
    counts->set("stage1.lines", c.log_lines);
    counts->set("stage1.xid_records", c.xid_records);
    counts->set("stage2.errors_coalesced", pipe.errors().size());
    counts->set("accounting.bytes", acct_bytes);
    counts->set("accounting.rows", rows);
    counts->set("accounting.rows_rejected", rejected);
    counts->set("index.bytes", fs::file_size(out_prefix.string() + ".idx"));
  }
}

void query_phase(Recorder& rec, const fs::path& idx, std::uint64_t seed,
                 std::size_t n, long long opens, Counts& counts) {
  SpanGuard root(rec, "query");
  const auto open = [&] {
    return unwrap(index::IndexReader::open(idx.string()), "open index");
  };
  for (long long i = 1; i < opens; ++i) timed(rec, "index.open", open);
  const auto reader = timed(rec, "index.open", open);
  const auto mix =
      timed(rec, "query.mix", [&] { return make_mix(reader, seed, n); });
  index::QueryEngine engine(reader);
  std::vector<std::string> answers;
  for (const auto& q : mix) {
    const std::string name = std::string("query.") + kind_name(q.kind);
    answers.push_back(
        timed(rec, name.c_str(), [&] { return run_query(engine, q); }));
  }
  timed(rec, "query.verify", [&] {
    index::QueryOptions off;
    off.cache_capacity = 0;
    index::QueryEngine uncached(reader, off);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      if (run_query(uncached, mix[i]) != answers[i]) {
        die("cached answer differs");
      }
    }
  });
  const double hits = static_cast<double>(engine.cache_hits());
  counts.set("query.cache_hit_ratio",
             hits / static_cast<double>(engine.cache_hits() +
                                        engine.cache_misses()));
}

void serve_phase(Recorder& rec, const fs::path& dir, const fs::path& ckpt_dir,
                 const fs::path& out_prefix, Counts& counts) {
  SpanGuard root(rec, "serve");
  obs::MetricsRegistry registry;
  serve::ServeConfig scfg;
  scfg.data_dir = dir;
  scfg.checkpoint_dir = ckpt_dir;
  scfg.checkpoint_interval = 64;
  scfg.threads = 4;
  scfg.metrics = &registry;
  analysis::PipelineConfig pcfg;  // the emit knobs gpures-serve keeps
  pcfg.attribution_window = scfg.attribution_window;
  pcfg.attribution = scfg.attribution;
  pcfg.outlier_share = scfg.outlier_share;
  pcfg.outlier_min = scfg.outlier_min;

  serve::ServeSession session(std::move(scfg));
  timed(rec, "serve.open", [&] { check(session.open(false), "serve open"); });
  while (true) {
    const auto seq = session.checkpoint_seq();
    SpanGuard tick(rec, "serve.tick");
    check(session.tick(), "serve tick");
    if (session.checkpoint_seq() != seq) {
      rec.rename(tick.id(), "serve.tick_ckpt");
    }
    if (session.idle()) break;
  }
  timed(rec, "serve.checkpoint",
        [&] { check(session.checkpoint_now(), "checkpoint"); });
  timed(rec, "serve.finalize",
        [&] { check(session.finalize(), "serve finalize"); });
  pcfg.periods = session.periods();
  emit(rec, session, pcfg, session.topo(), out_prefix);

  counts.set("serve.ticks", session.ticks());
  counts.set("serve.ckpt_writes",
             registry.counter_value("serve.checkpoint.writes"));
  counts.set("serve.ckpt_bytes",
             registry.counter_value("serve.checkpoint.bytes"));
  counts.set("serve.bytes_ingested",
             registry.counter_value("serve.bytes_ingested"));
}

int cmd_trace(const Flags& f) {
  Recorder rec;
  Counts counts;
  const fs::path data = f.str("data");
  const fs::path work = f.str("work");
  fs::create_directories(work);
  const auto cfg = campaign_config(f);
  const bool quick = f.has("quick");
  {
    SpanGuard root(rec, "setup");
    simulate(rec, "sim.campaign", cfg, data, quick, &counts);
  }
  {
    SpanGuard root(rec, "sim_baseline");
    auto faults_only = cfg;
    faults_only.with_jobs = false;
    simulate(rec, "sim.faults_only", faults_only, work / "faults_only", quick,
             nullptr);
  }
  fs::remove_all(work / "faults_only");
  analyze(rec, "analyze", data, 4, work / "analyze", &counts);
  analyze(rec, "analyze_serial", data, 0, work / "analyze_serial", nullptr);
  query_phase(rec, work / "analyze.idx",
              static_cast<std::uint64_t>(f.num("seed")),
              static_cast<std::size_t>(f.num("queries")), f.num("opens"),
              counts);
  serve_phase(rec, data, work / "ckpt", work / "serve", counts);
  fs::remove_all(work / "ckpt");

  check(common::write_file_atomic(f.str("trace-out"), rec.to_chrome_json()),
        "write trace");
  check(common::write_file_atomic(f.str("counts-out"), counts.to_json()),
        "write counts");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: e2e_probe query|trace --flag value ...");
  const std::string cmd = argv[1];
  const Flags f = parse_flags(argc, argv);
  try {
    if (cmd == "query") return cmd_query(f);
    if (cmd == "trace") return cmd_trace(f);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown command '" + cmd + "'");
}
