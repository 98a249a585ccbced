// Stage I robustness: deterministic mutation fuzzing of well-formed lines.
// Real consolidated logs contain truncated, corrupted, and interleaved
// lines; the parser must never crash, never mis-parse garbage into a record,
// and must stay in agreement with the regex reference on every mutant.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/extraction.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/time.h"
#include "logsys/syslog.h"
#include "simd/dispatch.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ls = gpures::logsys;

namespace {

const ct::TimePoint kDay = ct::make_date(2023, 6, 15);

std::vector<std::string> seed_lines() {
  std::vector<std::string> lines;
  lines.push_back(ls::render_xid_line(kDay + 3600, "gpua042", "0000:27:00",
                                      gx::Code::kUncontainedEccError,
                                      "Uncontained ECC error, address 0x1f"));
  lines.push_back(ls::render_xid_line(kDay + 7200, "gpub003", "0000:E7:00",
                                      gx::Code::kGspRpcTimeout,
                                      "Timeout waiting for RPC from GSP!"));
  lines.push_back(ls::render_drain_line(kDay + 9000, "gpua001"));
  lines.push_back(ls::render_resume_line(kDay + 9500, "gpua001"));
  return lines;
}

std::string mutate(const std::string& line, ct::Rng& rng) {
  std::string m = line;
  switch (rng.uniform_u64(6)) {
    case 0:  // truncate
      m.resize(rng.uniform_u64(m.size() + 1));
      break;
    case 1: {  // corrupt one byte
      if (!m.empty()) {
        m[rng.uniform_u64(m.size())] =
            static_cast<char>(32 + rng.uniform_u64(95));
      }
      break;
    }
    case 2:  // duplicate a chunk
      m += m.substr(m.size() / 2);
      break;
    case 3: {  // delete a span
      if (m.size() > 4) {
        const auto at = rng.uniform_u64(m.size() - 3);
        m.erase(at, rng.uniform_u64(3) + 1);
      }
      break;
    }
    case 4:  // splice two lines together
      m += " " + line;
      break;
    case 5: {  // inject control characters
      if (!m.empty()) {
        m[rng.uniform_u64(m.size())] = static_cast<char>(rng.uniform_u64(32));
      }
      break;
    }
  }
  return m;
}

}  // namespace

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MutantsNeverCrashAndParsersAgree) {
  an::FastLineParser fast;
  an::RegexLineParser ref;
  ct::Rng rng(GetParam());
  const auto seeds = seed_lines();

  for (int trial = 0; trial < 6000; ++trial) {
    const auto& base = seeds[rng.uniform_u64(seeds.size())];
    const auto mutant = mutate(base, rng);
    const auto a = fast.parse(mutant, kDay);
    const auto b = ref.parse(mutant, kDay);
    // Matchers may legitimately differ on pathological inputs only in one
    // narrow way: both must agree on *acceptance*; if both accept, the
    // extracted records must be identical.
    ASSERT_EQ(a.has_value(), b.has_value()) << "line: " << mutant;
    if (!a) continue;
    ASSERT_EQ(a->index(), b->index()) << mutant;
    if (const auto* xa = std::get_if<an::XidRecord>(&*a)) {
      const auto& xb = std::get<an::XidRecord>(*b);
      EXPECT_EQ(xa->time, xb.time) << mutant;
      EXPECT_EQ(xa->host, xb.host) << mutant;
      EXPECT_EQ(xa->pci, xb.pci) << mutant;
      EXPECT_EQ(xa->xid, xb.xid) << mutant;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(12345, 2, 3, 4, 5, 6, 7, 8));

TEST(ParserRobustness, AcceptedMutantsHaveSaneFields) {
  an::FastLineParser fast;
  ct::Rng rng(777);
  const auto seeds = seed_lines();
  for (int trial = 0; trial < 8000; ++trial) {
    const auto mutant = mutate(seeds[rng.uniform_u64(seeds.size())], rng);
    const auto parsed = fast.parse(mutant, kDay);
    if (!parsed) continue;
    if (const auto* x = std::get_if<an::XidRecord>(&*parsed)) {
      EXPECT_FALSE(x->host.empty());
      EXPECT_FALSE(x->pci.empty());
      // Timestamp stays within a day of the file date (year-rollover aside).
      EXPECT_GE(x->time, kDay - ct::kDay);
      EXPECT_LT(x->time, kDay + 2 * ct::kDay);
    } else {
      EXPECT_FALSE(std::get<an::LifecycleRecord>(*parsed).host.empty());
    }
  }
}

TEST(ParserRobustness, BinaryGarbageRejected) {
  an::FastLineParser fast;
  ct::Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage;
    const auto len = rng.uniform_u64(200);
    for (std::uint64_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.uniform_u64(256));
    }
    EXPECT_FALSE(fast.parse(garbage, kDay).has_value());
  }
}

TEST(ParserRobustness, MutantsParseIdenticallyUnderEveryScanBackend) {
  // The fast parser's terminator check, prefilter, and field splits all run
  // through the dispatched scan kernels; every backend must accept and
  // reject the exact same mutants with the exact same extracted fields.
  namespace sd = gpures::simd;
  const auto saved = sd::active();
  an::FastLineParser fast;
  ct::Rng rng(5150);
  const auto seeds = seed_lines();
  for (int trial = 0; trial < 4000; ++trial) {
    const auto mutant = mutate(seeds[rng.uniform_u64(seeds.size())], rng);
    ASSERT_TRUE(sd::set_active(sd::Backend::kScalar));
    const auto ref = fast.parse(mutant, kDay);
    for (const auto backend : sd::all_available()) {
      ASSERT_TRUE(sd::set_active(backend));
      const auto got = fast.parse(mutant, kDay);
      ASSERT_EQ(got.has_value(), ref.has_value())
          << sd::to_string(backend) << ": " << mutant;
      if (!got) continue;
      ASSERT_EQ(got->index(), ref->index()) << mutant;
      if (const auto* xa = std::get_if<an::XidRecord>(&*got)) {
        const auto& xb = std::get<an::XidRecord>(*ref);
        ASSERT_EQ(xa->time, xb.time) << mutant;
        ASSERT_EQ(xa->host, xb.host) << mutant;
        ASSERT_EQ(xa->pci, xb.pci) << mutant;
        ASSERT_EQ(xa->xid, xb.xid) << mutant;
        ASSERT_EQ(xa->detail, xb.detail) << mutant;
      } else {
        const auto& la = std::get<an::LifecycleRecord>(*got);
        const auto& lb = std::get<an::LifecycleRecord>(*ref);
        ASSERT_EQ(la.time, lb.time) << mutant;
        ASSERT_EQ(la.host, lb.host) << mutant;
        ASSERT_EQ(la.kind, lb.kind) << mutant;
      }
    }
  }
  sd::set_active(saved);
}

// ---- Slurm accounting parser under the same mutation harness ----

namespace {

namespace cl = gpures::cluster;
namespace sl = gpures::slurm;

std::vector<std::string> accounting_seed_lines(const cl::Topology& topo) {
  std::vector<std::string> lines;
  sl::JobRecord a;
  a.id = 17;
  a.name = "train-llm";
  a.submit = kDay;
  a.start = kDay + 60;
  a.end = kDay + 3660;
  a.gpus = 4;
  a.nodes = 1;
  a.state = sl::JobState::kCompleted;
  a.node_list = {0};
  a.gpu_list = {{0, 0}, {0, 1}, {0, 2}, {0, 3}};
  lines.push_back(sl::to_accounting_line(a, topo));
  sl::JobRecord b;
  b.id = 18;
  b.name = "cfd|solver";  // field-separator character in the name
  b.submit = kDay + 100;
  b.start = kDay + 200;
  b.end = kDay + 500;
  b.gpus = 1;
  b.nodes = 1;
  b.state = sl::JobState::kNodeFail;
  b.exit_code = 1;
  b.node_list = {1};
  b.gpu_list = {{1, 7}};
  lines.push_back(sl::to_accounting_line(b, topo));
  return lines;
}

}  // namespace

class AccountingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccountingFuzz, MutantsNeverCrashAndAcceptedMutantsAreSane) {
  const cl::Topology topo(cl::ClusterSpec::small(1, 1));
  const auto seeds = accounting_seed_lines(topo);
  ct::Rng rng(GetParam());
  int accepted = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const auto mutant = mutate(seeds[rng.uniform_u64(seeds.size())], rng);
    const auto rec = sl::parse_accounting_line(mutant, topo);
    if (!rec.ok()) {
      EXPECT_FALSE(rec.error().message.empty());
      continue;
    }
    ++accepted;
    // Whatever survives parsing must satisfy the record invariants the
    // analysis stages rely on; a mutant that parses into nonsense would
    // poison Tables II/III silently.
    const auto& r = rec.value();
    EXPECT_GE(r.start, r.submit) << mutant;
    EXPECT_GE(r.end, r.start) << mutant;
    EXPECT_GT(r.gpus, 0) << mutant;
    EXPECT_GT(r.nodes, 0) << mutant;
    for (const auto n : r.node_list) {
      ASSERT_GE(n, 0) << mutant;
      ASSERT_LT(n, topo.node_count()) << mutant;
    }
    for (const auto g : r.gpu_list) {
      ASSERT_GE(g.node, 0) << mutant;
      ASSERT_LT(g.node, topo.node_count()) << mutant;
      ASSERT_GE(g.slot, 0) << mutant;
    }
  }
  // The harness must exercise both outcomes: unmutated-equivalent lines
  // parse, and heavy mutants get rejected.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 6000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingFuzz,
                         ::testing::Values(1001, 1002, 1003, 1004));

TEST(AccountingRobustness, BinaryGarbageRejected) {
  const cl::Topology topo(cl::ClusterSpec::small(1, 0));
  ct::Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage;
    const auto len = rng.uniform_u64(300);
    for (std::uint64_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.uniform_u64(256));
    }
    EXPECT_FALSE(sl::parse_accounting_line(garbage, topo).ok());
  }
}

// ---- Accounting parser against the split-based parser it replaced ----

namespace {

std::optional<std::int32_t> oracle_node_index(const cl::Topology& topo,
                                              std::string_view host) {
  for (std::int32_t i = 0; i < topo.node_count(); ++i) {
    if (topo.node(i).name == host) return i;
  }
  return std::nullopt;
}

/// The accounting parser as it was before fields were cut in place: one
/// common::split vector per field list and a linear host scan.  Kept as the
/// reference the in-place parser must match on every input.
ct::Result<sl::JobRecord> oracle_parse_accounting_line(
    std::string_view line, const cl::Topology& topo) {
  const auto fields = ct::split(line, '|');
  if (fields.size() != 11) {
    return ct::Error::make("accounting: expected 11 fields, got " +
                           std::to_string(fields.size()));
  }
  sl::JobRecord rec;
  const long long id = ct::parse_ll(fields[0]);
  if (id < 0) return ct::Error::make("accounting: bad JobID");
  rec.id = static_cast<sl::JobId>(id);
  rec.name = std::string(fields[1]);
  const auto submit = ct::parse_iso(fields[2]);
  const auto start = ct::parse_iso(fields[3]);
  const auto end = ct::parse_iso(fields[4]);
  if (!submit || !start || !end) {
    return ct::Error::make("accounting: bad timestamp");
  }
  rec.submit = *submit;
  rec.start = *start;
  rec.end = *end;
  if (rec.end < rec.start || rec.start < rec.submit) {
    return ct::Error::make("accounting: non-monotonic Submit/Start/End");
  }
  if (!sl::parse_state(fields[5], rec.state)) {
    return ct::Error::make("accounting: unknown state '" +
                           std::string(fields[5]) + "'");
  }
  const auto exit_fields = ct::split(fields[6], ':');
  const long long code = ct::parse_ll(exit_fields[0]);
  if (code < 0) return ct::Error::make("accounting: bad ExitCode");
  rec.exit_code = static_cast<std::int32_t>(code);
  const long long nnodes = ct::parse_ll(fields[7]);
  const long long ngpus = ct::parse_ll(fields[8]);
  if (nnodes <= 0 || ngpus <= 0) {
    return ct::Error::make("accounting: bad NNodes/NGPUs");
  }
  rec.nodes = static_cast<std::int32_t>(nnodes);
  rec.gpus = static_cast<std::int32_t>(ngpus);
  if (!fields[9].empty()) {
    for (const auto host : ct::split(fields[9], ',')) {
      const auto idx = oracle_node_index(topo, host);
      if (!idx) {
        return ct::Error::make("accounting: unknown host '" +
                               std::string(host) + "'");
      }
      rec.node_list.push_back(*idx);
    }
  }
  if (static_cast<std::int32_t>(rec.node_list.size()) != rec.nodes) {
    return ct::Error::make("accounting: NodeList length mismatch");
  }
  if (!fields[10].empty()) {
    for (const auto entry : ct::split(fields[10], ';')) {
      const auto colon = entry.rfind(':');
      if (colon == std::string_view::npos) {
        return ct::Error::make("accounting: bad AllocGPUS entry");
      }
      const auto idx = oracle_node_index(topo, entry.substr(0, colon));
      const long long slot = ct::parse_ll(entry.substr(colon + 1));
      if (!idx || slot < 0 || slot >= topo.gpus_on_node(*idx)) {
        return ct::Error::make("accounting: bad AllocGPUS device");
      }
      rec.gpu_list.push_back({*idx, static_cast<std::int32_t>(slot)});
    }
  }
  if (static_cast<std::int32_t>(rec.gpu_list.size()) != rec.gpus) {
    return ct::Error::make("accounting: AllocGPUS length mismatch");
  }
  return rec;
}

/// Both parsers accept or reject `line` alike, with the same message on a
/// rejection and field-equal records on an acceptance.
void expect_matches_oracle(std::string_view line, const cl::Topology& topo) {
  const auto got = sl::parse_accounting_line(line, topo);
  const auto want = oracle_parse_accounting_line(line, topo);
  ASSERT_EQ(got.ok(), want.ok()) << line;
  if (!got.ok()) {
    EXPECT_EQ(got.error().message, want.error().message) << line;
    return;
  }
  const auto& a = got.value();
  const auto& b = want.value();
  EXPECT_EQ(a.id, b.id) << line;
  EXPECT_EQ(a.name, b.name) << line;
  EXPECT_EQ(a.submit, b.submit) << line;
  EXPECT_EQ(a.start, b.start) << line;
  EXPECT_EQ(a.end, b.end) << line;
  EXPECT_EQ(a.state, b.state) << line;
  EXPECT_EQ(a.exit_code, b.exit_code) << line;
  EXPECT_EQ(a.nodes, b.nodes) << line;
  EXPECT_EQ(a.gpus, b.gpus) << line;
  EXPECT_EQ(a.node_list, b.node_list) << line;
  EXPECT_EQ(a.gpu_list, b.gpu_list) << line;
}

}  // namespace

TEST_P(AccountingFuzz, MutantsMatchTheSplitOracle) {
  const cl::Topology topo(cl::ClusterSpec::small(1, 1));
  const auto seeds = accounting_seed_lines(topo);
  ct::Rng rng(GetParam());
  for (int trial = 0; trial < 6000; ++trial) {
    const auto mutant = mutate(seeds[rng.uniform_u64(seeds.size())], rng);
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(mutant, topo));
  }
}

TEST(AccountingRobustness, HandCasesMatchTheSplitOracle) {
  const cl::Topology topo(cl::ClusterSpec::small(2, 1));
  const std::string t = "2023-06-15T01:00:00";
  const std::string head = "17|job|" + t + "|" + t + "|" + t + "|COMPLETED|";
  const std::vector<std::string> lines = {
      head + "0:0|1|1|gpua001|gpua001:0",                // well-formed
      head + "0:0|1|1|gpua001",                          // 10 fields
      head + "0:0|1|1|gpua001|gpua001:0|x",              // 12 fields
      head + "0:0|1|1|gpua001|gpua001:0|",               // trailing '|'
      head + "0:0|1|1|gpua001|gpua001:0||||",            // 15 fields
      head + "0:0|3|1|gpua001,,gpua002|gpua001:0",       // empty host
      head + "0:0|2|1|gpua001,|gpua001:0",               // trailing ','
      head + "0:0|1|2|gpua001|gpua001:0;",               // trailing ';'
      head + "0:0|1|2|gpua001|gpua001:0;;gpua001:1",     // empty device
      head + "0:0|1|1|gpua001|gpua001",                  // device sans slot
      head + "0:0|1|1|gpua001|gpua001:4",                // slot past the node
      head + "0:0|1|1|gpub001|gpub001:7",                // 8-way slot
      head + "0|1|1|gpua001|gpua001:0",                  // ExitCode "0"
      head + "0:0:0|1|1|gpua001|gpua001:0",              // ExitCode "0:0:0"
      head + ":0|1|1|gpua001|gpua001:0",                 // empty code
      head + "3:9|2|2|gpua001,gpua002|gpua001:1;gpua002:3",
      " 17|job|" + t + "|" + t + "|" + t +
          "|COMPLETED| 0:0| 1 |1 |gpua001|gpua001: 0",   // padded numbers
      head + "0:0|1|1|gpua003|gpua003:0",                // unknown host
      head + "0:0|1|1|GPUA001|gpua001:0",                // wrong case
      head + "0:0|1|1||",                                // empty lists
      "",
      "|",
      std::string(sl::kAccountingHeader),
  };
  for (const auto& line : lines) {
    ASSERT_NO_FATAL_FAILURE(expect_matches_oracle(line, topo));
  }
  // The count in the rejection stays exact past eleven fields.
  const auto twelve = sl::parse_accounting_line(lines[2], topo);
  ASSERT_FALSE(twelve.ok());
  EXPECT_EQ(twelve.error().message, "accounting: expected 11 fields, got 12");
  const auto fifteen = sl::parse_accounting_line(lines[4], topo);
  ASSERT_FALSE(fifteen.ok());
  EXPECT_EQ(fifteen.error().message, "accounting: expected 11 fields, got 15");
  // The padded row and both ExitCode shapes are records, not rejections.
  EXPECT_TRUE(sl::parse_accounting_line(lines[12], topo).ok());
  EXPECT_TRUE(sl::parse_accounting_line(lines[13], topo).ok());
  EXPECT_TRUE(sl::parse_accounting_line(lines[16], topo).ok());
}
