// Chaos-hardened ingestion: the deterministic corrupter and the hardened
// ingest (a drained ServeSession, as in gpures-analyze), reconciled against
// each other.  Every fault the corrupter can
// inject must produce either a structured strict-mode error or a completed
// lenient run whose DataQualityReport matches the corruption ledger
// *exactly* — the two sides account for the same bytes independently.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "chaos/chaos.h"
#include "cluster/topology.h"
#include "common/io.h"
#include "ingest_helpers.h"
#include "logsys/syslog.h"
#include "serve/serve.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace ch = gpures::chaos;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gt = gpures::testing;
namespace gx = gpures::xid;
namespace ls = gpures::logsys;
namespace sl = gpures::slurm;
namespace fs = std::filesystem;

namespace {

const ct::TimePoint kDay0 = ct::make_date(2023, 6, 1);

fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("gpures_chaos_" + name);
  fs::remove_all(dir);
  return dir;
}

/// A small but real dataset: every day has XID, lifecycle, and plain-text
/// lines; the accounting dump has parseable jobs on known GPUs.
fs::path make_clean_dataset(const std::string& name, int n_days) {
  const auto dir = temp_dir(name);
  an::DatasetManifest m;
  m.spec = cl::ClusterSpec::small(2, 0);
  m.periods = an::StudyPeriods::make(kDay0, kDay0 + 2 * ct::kDay,
                                     kDay0 + n_days * ct::kDay);
  const cl::Topology topo(m.spec);
  an::DatasetWriter w(dir, m);
  for (int d = 0; d < n_days; ++d) {
    const auto day = kDay0 + d * ct::kDay;
    std::vector<ls::RawLine> lines;
    lines.push_back({day + 3600,
                     ls::render_xid_line(day + 3600, "gpua001",
                                         topo.pci_bus({0, d % 4}),
                                         gx::Code::kGspRpcTimeout,
                                         "Timeout waiting for RPC from GSP!")});
    lines.push_back({day + 7200,
                     ls::render_xid_line(day + 7200, "gpua002",
                                         topo.pci_bus({1, (d + 1) % 4}),
                                         gx::Code::kUncontainedEccError,
                                         "Uncontained ECC error")});
    lines.push_back({day + 9000, ls::render_drain_line(day + 9000, "gpua002")});
    lines.push_back({day + 9600, ls::render_resume_line(day + 9600, "gpua002")});
    w.write_day(day, lines);
  }
  w.write_accounting_line(sl::accounting_header());
  for (int j = 0; j < 6; ++j) {
    sl::JobRecord rec;
    rec.id = static_cast<sl::JobId>(100 + j);
    rec.name = "job" + std::to_string(j);
    rec.submit = kDay0 + j * 600;
    rec.start = rec.submit + 60;
    rec.end = rec.start + 3600;
    rec.gpus = 1;
    rec.nodes = 1;
    rec.node_list = {j % 2};
    rec.gpu_list = {{j % 2, j % 4}};
    w.write_accounting_line(sl::to_accounting_line(rec, topo));
  }
  const auto st = w.finalize();
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  return dir;
}

struct LoadOutcome {
  bool ok = false;
  ct::Error error;
  an::DataQualityReport quality;
  std::uint64_t days = 0;
  std::vector<an::CoalescedError> errors;
  std::size_t jobs = 0;
  std::uint64_t unknown_hosts = 0;  ///< pipe.unknown_hosts after the drain
};

LoadOutcome load(const fs::path& dir, an::IngestPolicy policy,
                 std::uint64_t budget = 0, std::uint32_t threads = 0) {
  LoadOutcome out;
  gpures::serve::ServeSession s(
      gt::analyze_config(dir, policy, threads, budget));
  auto st = s.open(false);
  if (st.ok()) st = s.drain();
  out.ok = st.ok();
  if (st.ok()) {
    out.quality = s.quality();
    out.days = out.quality.days_present;
    out.errors = s.errors();
    out.jobs = s.jobs().jobs.size();
    out.unknown_hosts = s.counters().unknown_hosts;
  } else {
    out.error = st.error();
  }
  return out;
}

ch::CorruptionLedger corrupt(const fs::path& src, const fs::path& dst,
                             std::uint64_t seed, const std::string& spec) {
  const auto parsed = ch::CorruptionSpec::parse(spec);
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message);
  const auto ledger = ch::corrupt_dataset(src, dst, seed, parsed.value());
  EXPECT_TRUE(ledger.ok()) << (ledger.ok() ? "" : ledger.error().message);
  return ledger.value();
}

/// Every observable expectation in the ledger against the quality report.
void reconcile(const ch::CorruptionLedger& ledger,
               const an::DataQualityReport& q) {
  EXPECT_EQ(q.binary_lines, ledger.expect_binary_lines);
  EXPECT_EQ(q.binary_bytes, ledger.expect_binary_bytes);
  EXPECT_EQ(q.overlong_lines, ledger.expect_overlong_lines);
  EXPECT_EQ(q.overlong_bytes, ledger.expect_overlong_bytes);
  EXPECT_EQ(q.torn_lines, ledger.expect_torn_lines);
  EXPECT_EQ(q.torn_bytes, ledger.expect_torn_bytes);
  EXPECT_EQ(q.missing_days.size(), ledger.expect_missing_days);
  EXPECT_EQ(q.zero_byte_days, ledger.expect_zero_byte_days);
  EXPECT_EQ(q.accounting_present, !ledger.expect_accounting_missing);
  EXPECT_EQ(q.accounting_rows_rejected, ledger.expect_accounting_rejected_rows);
  EXPECT_EQ(q.accounting_bytes_rejected,
            ledger.expect_accounting_rejected_bytes);
}

std::string read_all(const fs::path& p) {
  auto r = ct::read_file(p.string());
  EXPECT_TRUE(r.ok()) << p;
  return r.ok() ? std::move(r).take() : std::string();
}

}  // namespace

// ---- spec parsing ----

TEST(ChaosSpec, ParseAndCanonicalRoundTrip) {
  const auto s = ch::CorruptionSpec::parse("garbage:5, truncate ,missing-day:2");
  ASSERT_TRUE(s.ok()) << s.error().message;
  ASSERT_EQ(s.value().faults.size(), 3u);
  EXPECT_EQ(s.value().faults[0].fault, ch::Fault::kGarbage);
  EXPECT_EQ(s.value().faults[0].count, 5u);
  EXPECT_EQ(s.value().faults[1].count, 1u);  // default
  const auto canon = s.value().canonical();
  EXPECT_EQ(canon, "garbage:5,truncate:1,missing-day:2");
  const auto again = ch::CorruptionSpec::parse(canon);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().canonical(), canon);
}

TEST(ChaosSpec, ParseRejectsBadInput) {
  EXPECT_FALSE(ch::CorruptionSpec::parse("frobnicate").ok());
  EXPECT_FALSE(ch::CorruptionSpec::parse("garbage:0").ok());
  EXPECT_FALSE(ch::CorruptionSpec::parse("garbage:xyz").ok());
  EXPECT_FALSE(ch::CorruptionSpec::parse("garbage,,truncate").ok());
  EXPECT_FALSE(ch::CorruptionSpec::parse("").ok());
  EXPECT_FALSE(ch::CorruptionSpec::parse("all:3").ok());
  const auto all = ch::CorruptionSpec::parse("all");
  ASSERT_TRUE(all.ok());
  EXPECT_GE(all.value().faults.size(), 9u);
}

// ---- corrupter determinism ----

TEST(Chaos, SameSeedSameBytes) {
  const auto src = make_clean_dataset("det_src", 12);
  const auto a = temp_dir("det_a");
  const auto b = temp_dir("det_b");
  const auto c = temp_dir("det_c");
  corrupt(src, a, 42, "all");
  corrupt(src, b, 42, "all");
  corrupt(src, c, 43, "all");
  bool any_differs_from_c = false;
  for (const auto& entry : fs::recursive_directory_iterator(a)) {
    if (!entry.is_regular_file()) continue;
    const auto rel = fs::relative(entry.path(), a);
    EXPECT_EQ(read_all(entry.path()), read_all(b / rel)) << rel;
    if (!fs::exists(c / rel) || read_all(entry.path()) != read_all(c / rel)) {
      any_differs_from_c = true;
    }
  }
  EXPECT_TRUE(any_differs_from_c);  // a different seed corrupts differently
  fs::remove_all(src);
  fs::remove_all(a);
  fs::remove_all(b);
  fs::remove_all(c);
}

// ---- clean input: policies and thread counts are identical ----

TEST(Chaos, CleanInputIsPolicyAndThreadInvariant) {
  const auto dir = make_clean_dataset("clean", 6);
  const auto strict = load(dir, an::IngestPolicy::kStrict);
  ASSERT_TRUE(strict.ok) << strict.error.message;
  EXPECT_TRUE(strict.quality.clean());
  EXPECT_EQ(strict.days, 6u);
  EXPECT_EQ(strict.quality.days_expected, 6u);
  for (const auto threads : {0u, 2u, 4u, 8u}) {
    for (const auto policy :
         {an::IngestPolicy::kStrict, an::IngestPolicy::kLenient}) {
      const auto r = load(dir, policy, 0, threads);
      ASSERT_TRUE(r.ok) << r.error.message;
      EXPECT_TRUE(r.quality.clean());
      ASSERT_EQ(r.errors.size(), strict.errors.size());
      for (std::size_t i = 0; i < r.errors.size(); ++i) {
        EXPECT_EQ(r.errors[i].time, strict.errors[i].time);
        EXPECT_EQ(r.errors[i].gpu, strict.errors[i].gpu);
        EXPECT_EQ(r.errors[i].code, strict.errors[i].code);
        EXPECT_EQ(r.errors[i].raw_lines, strict.errors[i].raw_lines);
      }
      EXPECT_EQ(r.jobs, strict.jobs);
    }
  }
  // The in-memory pipeline fed the same files agrees.
  {
    const auto m = an::read_manifest(dir);
    ASSERT_TRUE(m.ok());
    const cl::Topology topo(m.value().spec);
    an::PipelineConfig pcfg;
    pcfg.periods = m.value().periods;
    an::AnalysisPipeline pipe(topo, pcfg);
    gt::feed_pipeline(dir, pipe);
    EXPECT_EQ(pipe.errors().size(), strict.errors.size());
    EXPECT_EQ(pipe.jobs().jobs.size(), strict.jobs);
  }
  fs::remove_all(dir);
}

// ---- individual faults ----

TEST(Chaos, TruncateStrictFailsWithLocationLenientReconciles) {
  const auto src = make_clean_dataset("trunc", 5);
  const auto dst = temp_dir("trunc_out");
  const auto ledger = corrupt(src, dst, 7, "truncate:2");
  EXPECT_EQ(ledger.expect_torn_lines, 2u);
  const auto strict = load(dst, an::IngestPolicy::kStrict);
  ASSERT_FALSE(strict.ok);
  EXPECT_NE(strict.error.message.find("torn"), std::string::npos);
  EXPECT_NE(strict.error.file.find("syslog-"), std::string::npos);
  EXPECT_GT(strict.error.line, 0u);
  // The parallel chunk parse must fail at the same place.
  const auto strict_mt = load(dst, an::IngestPolicy::kStrict, 0, 4);
  ASSERT_FALSE(strict_mt.ok);
  EXPECT_EQ(strict_mt.error.message, strict.error.message);
  const auto lenient = load(dst, an::IngestPolicy::kLenient);
  ASSERT_TRUE(lenient.ok) << lenient.error.message;
  reconcile(ledger, lenient.quality);
  EXPECT_EQ(lenient.days, 5u);
  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(Chaos, GarbageAndOverlongReconcile) {
  const auto src = make_clean_dataset("garb", 6);
  const auto dst = temp_dir("garb_out");
  const auto ledger = corrupt(src, dst, 11, "garbage:4,overlong:3");
  EXPECT_EQ(ledger.expect_binary_lines, 4u);
  EXPECT_EQ(ledger.expect_overlong_lines, 3u);
  EXPECT_GT(ledger.expect_overlong_bytes, 3 * ch::kScreenMaxLineLen);
  const auto strict = load(dst, an::IngestPolicy::kStrict);
  ASSERT_FALSE(strict.ok);
  const auto lenient = load(dst, an::IngestPolicy::kLenient);
  ASSERT_TRUE(lenient.ok) << lenient.error.message;
  reconcile(ledger, lenient.quality);
  // Quarantine never drops clean data: all other days parse in full.
  EXPECT_EQ(lenient.days, 6u);
  EXPECT_FALSE(lenient.quality.clean());
  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(Chaos, MissingDayAndZeroByteAreCoverageGaps) {
  const auto src = make_clean_dataset("gaps", 8);
  const auto dst = temp_dir("gaps_out");
  const auto ledger = corrupt(src, dst, 3, "missing-day:2,zero-byte:1");
  EXPECT_EQ(ledger.expect_missing_days, 2u);
  EXPECT_EQ(ledger.expect_zero_byte_days, 1u);
  // Neither fault corrupts a line, so even strict mode completes — the gaps
  // are reported, not fatal (absent evidence is not malformed evidence).
  for (const auto policy :
       {an::IngestPolicy::kStrict, an::IngestPolicy::kLenient}) {
    const auto r = load(dst, policy);
    ASSERT_TRUE(r.ok) << r.error.message;
    reconcile(ledger, r.quality);
    EXPECT_EQ(r.days, 6u);  // 8 expected, 2 deleted (zero-byte still counts)
    EXPECT_EQ(r.quality.days_expected, 8u);
    EXPECT_EQ(r.quality.days_present, 6u);
    EXPECT_FALSE(r.quality.clean());
  }
  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(Chaos, MissingAccountingIsACoverageGapUnderBothPolicies) {
  const auto src = make_clean_dataset("noacc", 4);
  const auto dst = temp_dir("noacc_out");
  const auto ledger = corrupt(src, dst, 5, "missing-accounting");
  EXPECT_TRUE(ledger.expect_accounting_missing);
  // A wholly absent dump is absent evidence, like a missing day: reported,
  // never fatal — log-only datasets are legitimate even under strict.
  for (const auto policy :
       {an::IngestPolicy::kStrict, an::IngestPolicy::kLenient}) {
    const auto r = load(dst, policy);
    ASSERT_TRUE(r.ok) << r.error.message;
    EXPECT_FALSE(r.quality.accounting_present);
    EXPECT_FALSE(r.quality.clean());
    EXPECT_EQ(r.jobs, 0u);
    reconcile(ledger, r.quality);
  }
  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(Chaos, UnreadableAccountingStrictFailsLenientRecords) {
  // A dump that exists but cannot be read is corruption, not a gap: strict
  // aborts, lenient records the reason and completes without jobs.
  const auto dir = make_clean_dataset("accio", 4);
  const ct::IoFaultPlan plan{"slurm_accounting", 1};
  ct::set_io_fault_plan(&plan);
  const auto strict = load(dir, an::IngestPolicy::kStrict);
  const auto lenient = load(dir, an::IngestPolicy::kLenient);
  ct::set_io_fault_plan(nullptr);
  ASSERT_FALSE(strict.ok);
  EXPECT_NE(strict.error.message.find("slurm_accounting"), std::string::npos);
  ASSERT_TRUE(lenient.ok) << lenient.error.message;
  EXPECT_FALSE(lenient.quality.accounting_present);
  EXPECT_FALSE(lenient.quality.accounting_error.empty());
  EXPECT_EQ(lenient.jobs, 0u);
  fs::remove_all(dir);
}

TEST(Chaos, BadAccountingStrictNamesTheRowLenientCounts) {
  const auto src = make_clean_dataset("badacc", 4);
  const auto dst = temp_dir("badacc_out");
  const auto ledger = corrupt(src, dst, 9, "bad-accounting:3");
  EXPECT_EQ(ledger.expect_accounting_rejected_rows, 3u);
  const auto strict = load(dst, an::IngestPolicy::kStrict);
  ASSERT_FALSE(strict.ok);
  EXPECT_NE(strict.error.file.find("slurm_accounting"), std::string::npos);
  EXPECT_GT(strict.error.line, 1u);  // never the header
  const auto lenient = load(dst, an::IngestPolicy::kLenient);
  ASSERT_TRUE(lenient.ok) << lenient.error.message;
  reconcile(ledger, lenient.quality);
  EXPECT_EQ(lenient.jobs, 6u - 3u);  // the good rows still load
  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(Chaos, DuplicateReorderSkewAreQuarantineFree) {
  // Valid-but-wrong data (duplicated, reordered, clock-skewed lines) must
  // pass both policies without quarantines: the screen rejects corruption,
  // never well-formed lines.
  const auto src = make_clean_dataset("valid", 6);
  const auto dst = temp_dir("valid_out");
  const auto ledger = corrupt(src, dst, 13, "duplicate:4,reorder,skew");
  for (const auto policy :
       {an::IngestPolicy::kStrict, an::IngestPolicy::kLenient}) {
    const auto r = load(dst, policy);
    ASSERT_TRUE(r.ok) << r.error.message;
    EXPECT_EQ(r.quality.quarantined_lines(), 0u);
    EXPECT_EQ(r.days, 6u);
    reconcile(ledger, r.quality);
  }
  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(Chaos, CrlfArchivesAreNormalizedNotQuarantined) {
  // A CRLF-terminated archive (Windows transfer, some consolidators) is
  // messy-but-real input: the screen strips the '\r' terminators instead of
  // quarantining every line as binary, both policies complete, and the
  // stripped bytes are accounted in the quality report.
  const auto dir = make_clean_dataset("crlf", 4);
  const auto baseline = load(dir, an::IngestPolicy::kStrict);
  ASSERT_TRUE(baseline.ok) << baseline.error.message;

  std::uint64_t rewritten_lines = 0;
  const auto day_path =
      dir / "syslog" / ("syslog-" + ct::format_date(kDay0) + ".log");
  {
    auto text = read_all(day_path);
    std::string crlf;
    crlf.reserve(text.size() * 2);
    for (const char c : text) {
      if (c == '\n') {
        crlf += "\r\n";
        ++rewritten_lines;
      } else {
        crlf += c;
      }
    }
    std::ofstream os(day_path, std::ios::trunc | std::ios::binary);
    os.write(crlf.data(), static_cast<std::streamsize>(crlf.size()));
    ASSERT_TRUE(os.good());
  }
  ASSERT_GT(rewritten_lines, 0u);

  for (const auto policy :
       {an::IngestPolicy::kStrict, an::IngestPolicy::kLenient}) {
    const auto r = load(dir, policy);
    ASSERT_TRUE(r.ok) << r.error.message;
    EXPECT_EQ(r.quality.quarantined_lines(), 0u);
    EXPECT_EQ(r.quality.crlf_bytes, rewritten_lines);  // one '\r' per line
    EXPECT_TRUE(r.quality.clean());  // normalization is lossless
    // Line content is unchanged, so everything downstream agrees byte for
    // byte with the LF original.
    ASSERT_EQ(r.errors.size(), baseline.errors.size());
    for (std::size_t i = 0; i < r.errors.size(); ++i) {
      EXPECT_EQ(r.errors[i].time, baseline.errors[i].time);
      EXPECT_EQ(r.errors[i].gpu, baseline.errors[i].gpu);
      EXPECT_EQ(r.errors[i].code, baseline.errors[i].code);
    }
    EXPECT_EQ(r.jobs, baseline.jobs);
  }
  fs::remove_all(dir);
}

TEST(Chaos, IoFaultStrictFailsLenientSkipsTheDay) {
  const auto src = make_clean_dataset("iofault", 5);
  const auto dst = temp_dir("iofault_out");
  const auto ledger = corrupt(src, dst, 17, "io-fault");
  ASSERT_FALSE(ledger.io_fault_path.empty());
  ASSERT_GT(ledger.io_fault_after_bytes, 0u);
  EXPECT_EQ(ledger.expect_skipped_days, 1u);

  // Unarmed, the corrupted copy is byte-identical to clean.
  const auto unarmed = load(dst, an::IngestPolicy::kStrict);
  ASSERT_TRUE(unarmed.ok) << unarmed.error.message;
  EXPECT_TRUE(unarmed.quality.clean());

  const ct::IoFaultPlan plan{ledger.io_fault_path,
                             ledger.io_fault_after_bytes};
  ct::set_io_fault_plan(&plan);
  const auto strict = load(dst, an::IngestPolicy::kStrict);
  const auto strict_mt = load(dst, an::IngestPolicy::kStrict, 0, 4);
  const auto lenient = load(dst, an::IngestPolicy::kLenient);
  const auto parallel = load(dst, an::IngestPolicy::kLenient, 0, 4);
  ct::set_io_fault_plan(nullptr);

  ASSERT_FALSE(strict.ok);
  EXPECT_NE(strict.error.message.find("injected I/O fault"), std::string::npos);
  // Parallel strict takes the same abort.
  ASSERT_FALSE(strict_mt.ok);
  EXPECT_EQ(strict_mt.error.message, strict.error.message);
  ASSERT_TRUE(lenient.ok) << lenient.error.message;
  ASSERT_EQ(lenient.quality.skipped_days.size(), 1u);
  EXPECT_EQ(lenient.quality.skipped_days[0].date,
            ledger.io_fault_path.substr(7, 10));
  EXPECT_EQ(lenient.days, 4u);
  // The parallel chunk parse takes the same skip decision.
  ASSERT_TRUE(parallel.ok) << parallel.error.message;
  EXPECT_EQ(parallel.quality.skipped_days.size(), 1u);
  EXPECT_EQ(parallel.days, 4u);
  fs::remove_all(src);
  fs::remove_all(dst);
}

// ---- error budget ----

TEST(Chaos, LenientErrorBudgetAborts) {
  const auto src = make_clean_dataset("budget", 4);
  const auto dst = temp_dir("budget_out");
  corrupt(src, dst, 21, "garbage:10");
  const auto blown = load(dst, an::IngestPolicy::kLenient, 5);
  ASSERT_FALSE(blown.ok);
  EXPECT_NE(blown.error.message.find("error budget exceeded"),
            std::string::npos);
  // Budget aborts mid-run in the parallel chunk parse too.
  const auto blown_mt = load(dst, an::IngestPolicy::kLenient, 5, 4);
  ASSERT_FALSE(blown_mt.ok);
  EXPECT_EQ(blown_mt.error.message, blown.error.message);
  const auto within = load(dst, an::IngestPolicy::kLenient, 10);
  ASSERT_TRUE(within.ok) << within.error.message;
  const auto unlimited = load(dst, an::IngestPolicy::kLenient, 0);
  ASSERT_TRUE(unlimited.ok) << unlimited.error.message;
  EXPECT_EQ(unlimited.quality.binary_lines, 10u);
  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(Chaos, AccountingErrorBudgetAborts) {
  const auto src = make_clean_dataset("acc_budget", 4);
  const auto dst = temp_dir("acc_budget_out");
  corrupt(src, dst, 23, "bad-accounting:4");
  const auto blown = load(dst, an::IngestPolicy::kLenient, 2);
  ASSERT_FALSE(blown.ok);
  EXPECT_NE(blown.error.message.find("accounting error budget"),
            std::string::npos);
  const auto within = load(dst, an::IngestPolicy::kLenient, 4);
  ASSERT_TRUE(within.ok) << within.error.message;
  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(Chaos, UnknownHostDropsReconcileWithStageOne) {
  // Renamed hosts are matched-but-unresolvable XID records: neither policy
  // quarantines them, and Stage I drops exactly the ledger's count.
  const auto src = make_clean_dataset("ghost", 6);
  const auto dst = temp_dir("ghost_out");
  const auto ledger = corrupt(src, dst, 19, "unknown-host:2");
  EXPECT_EQ(ledger.expect_unknown_hosts, 2u);
  ASSERT_EQ(ledger.applied.size(), 1u);
  EXPECT_EQ(ledger.applied[0].fault, "unknown-host");
  const auto clean = load(src, an::IngestPolicy::kLenient);
  ASSERT_TRUE(clean.ok) << clean.error.message;
  EXPECT_EQ(clean.unknown_hosts, 0u);
  for (const auto policy :
       {an::IngestPolicy::kStrict, an::IngestPolicy::kLenient}) {
    for (const std::uint32_t threads : {0u, 4u}) {
      const auto r = load(dst, policy, 0, threads);
      ASSERT_TRUE(r.ok) << r.error.message;
      reconcile(ledger, r.quality);
      EXPECT_TRUE(r.quality.clean());
      EXPECT_EQ(r.unknown_hosts, ledger.expect_unknown_hosts);
      EXPECT_EQ(r.errors.size() + ledger.expect_unknown_hosts,
                clean.errors.size());
    }
  }
  // Asking for more lines than the day holds renames every XID line of it.
  const auto dst_all = temp_dir("ghost_all_out");
  const auto greedy = corrupt(src, dst_all, 19, "unknown-host:50");
  EXPECT_EQ(greedy.expect_unknown_hosts, 2u);
  const auto r = load(dst_all, an::IngestPolicy::kLenient);
  ASSERT_TRUE(r.ok) << r.error.message;
  EXPECT_EQ(r.unknown_hosts, 2u);
  fs::remove_all(src);
  fs::remove_all(dst);
  fs::remove_all(dst_all);
}

// ---- the whole matrix at once ----

TEST(Chaos, FullMatrixReconcilesExactlyAtAnyThreadCount) {
  const auto src = make_clean_dataset("matrix", 14);
  const auto dst = temp_dir("matrix_out");
  const auto ledger = corrupt(src, dst, 101, "all");
  ASSERT_FALSE(ledger.io_fault_path.empty());
  const ct::IoFaultPlan plan{ledger.io_fault_path,
                             ledger.io_fault_after_bytes};
  LoadOutcome serial;
  LoadOutcome parallel;
  ct::set_io_fault_plan(&plan);
  serial = load(dst, an::IngestPolicy::kLenient, 0, 0);
  parallel = load(dst, an::IngestPolicy::kLenient, 0, 4);
  ct::set_io_fault_plan(nullptr);

  EXPECT_GT(ledger.expect_unknown_hosts, 0u);
  for (const auto* r : {&serial, &parallel}) {
    ASSERT_TRUE(r->ok) << r->error.message;
    reconcile(ledger, r->quality);
    EXPECT_EQ(r->unknown_hosts, ledger.expect_unknown_hosts);
    EXPECT_EQ(r->quality.skipped_days.size(), ledger.expect_skipped_days);
    EXPECT_FALSE(r->quality.clean());
    // The report is internally consistent: per-day tallies sum to totals.
    std::uint64_t day_quarantined = 0;
    for (const auto& d : r->quality.days) {
      day_quarantined += d.quarantined_lines();
    }
    EXPECT_EQ(day_quarantined, r->quality.quarantined_lines());
  }
  // Corruption does not break determinism: serial and parallel lenient runs
  // agree on everything downstream.
  ASSERT_EQ(serial.errors.size(), parallel.errors.size());
  for (std::size_t i = 0; i < serial.errors.size(); ++i) {
    EXPECT_EQ(serial.errors[i].time, parallel.errors[i].time);
    EXPECT_EQ(serial.errors[i].gpu, parallel.errors[i].gpu);
    EXPECT_EQ(serial.errors[i].code, parallel.errors[i].code);
  }
  EXPECT_EQ(serial.jobs, parallel.jobs);
  EXPECT_EQ(serial.quality.to_json(), parallel.quality.to_json());
  fs::remove_all(src);
  fs::remove_all(dst);
}

// ---- ledger serialization ----

TEST(Chaos, LedgerJsonIsWrittenAndNonEmpty) {
  const auto src = make_clean_dataset("ledger", 5);
  const auto dst = temp_dir("ledger_out");
  const auto ledger = corrupt(src, dst, 31, "garbage:2");
  EXPECT_TRUE(fs::exists(dst / "corruption_ledger.json"));
  const auto json = ledger.to_json();
  EXPECT_NE(json.find("\"seed\""), std::string::npos);
  EXPECT_NE(json.find("\"binary_lines\""), std::string::npos);
  EXPECT_NE(json.find("garbage"), std::string::npos);
  // The ledger file itself is a stray from the loader's point of view?  No:
  // it sits at the dataset root, which the loader never scans.
  const auto r = load(dst, an::IngestPolicy::kLenient);
  ASSERT_TRUE(r.ok) << r.error.message;
  EXPECT_TRUE(r.quality.stray_files.empty());
  fs::remove_all(src);
  fs::remove_all(dst);
}
