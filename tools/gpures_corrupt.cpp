// gpures-corrupt: deterministically corrupt a dataset for chaos testing.
//
//   gpures-corrupt --in DIR --out DIR [--seed N] [--faults SPEC]
//
// Copies the dataset at --in to --out while applying the requested fault
// matrix (see src/chaos/chaos.h).  The same (seed, spec) pair always
// produces the same corrupted bytes, and a machine-readable ledger of what
// was done — and what a lenient ingest must observe — is written to
// OUT/corruption_ledger.json (and to --ledger FILE if given).
//
// Fault spec: comma-separated "fault[:count]" from
//   truncate garbage overlong duplicate reorder missing-day
//   missing-accounting skew bad-accounting zero-byte io-fault unknown-host
// or "all" for the full matrix (minus missing-accounting) with defaults.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/chaos.h"
#include "common/io.h"
#include "common/strings.h"
#include "obs/log.h"

using namespace gpures;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gpures-corrupt --in DIR --out DIR [options]\n"
      "  --in DIR       clean dataset directory (required)\n"
      "  --out DIR      corrupted copy destination (required)\n"
      "  --seed N       corruption seed (default 1)\n"
      "  --faults SPEC  comma-separated fault[:count] list, or 'all'\n"
      "                 (default all)\n"
      "  --ledger FILE  also write the corruption ledger JSON here\n"
      "  --chaos-io-fault SPEC\n"
      "                 record SUBSTRING:BYTES[:KIND[:TIMES]] as the ledger's\n"
      "                 I/O fault plan (KIND fail|transient|eintr|short-read;\n"
      "                 see common/io.h).  Transient kinds are absorbed by a\n"
      "                 retrying reader (gpures-serve) but fail a single-shot\n"
      "                 batch read\n"
      "  --log-json FILE  structured JSONL log sidecar\n"
      "  --log-level L    debug|info|warn|error (default info)\n"
      "  --quiet        no summary on stderr\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_dir;
  std::string out_dir;
  std::string faults = "all";
  std::string ledger_file;
  std::string chaos_io_fault;
  std::string log_json_file;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  std::uint64_t seed = 1;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gpures-corrupt: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--in") {
      in_dir = next("--in");
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--seed") {
      // Strict parse: std::atoll would fold a typo into seed 0 silently,
      // and a wrong seed corrupts "deterministically" — just not the way
      // the ledger on record says.
      const char* s = next("--seed");
      const long long v = common::parse_ll(s);
      if (v < 0) {
        std::fprintf(stderr,
                     "gpures-corrupt: --seed wants a non-negative integer, "
                     "got '%s'\n",
                     s);
        return 2;
      }
      seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--faults") {
      faults = next("--faults");
    } else if (arg == "--ledger") {
      ledger_file = next("--ledger");
    } else if (arg == "--chaos-io-fault") {
      chaos_io_fault = next("--chaos-io-fault");
    } else if (arg == "--log-json") {
      log_json_file = next("--log-json");
    } else if (arg == "--log-level") {
      const char* s = next("--log-level");
      const auto parsed = obs::parse_log_level(s);
      if (!parsed) {
        std::fprintf(stderr, "gpures-corrupt: unknown --log-level '%s'\n", s);
        return 2;
      }
      log_level = *parsed;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "gpures-corrupt: unknown argument '%s'\n",
                   arg.c_str());
      usage();
      return 2;
    }
  }
  if (in_dir.empty() || out_dir.empty()) {
    usage();
    return 2;
  }

  obs::Logger::Options log_opts;
  log_opts.min_level = log_level;
  if (quiet) log_opts.text_min_level = obs::LogLevel::kError;
  log_opts.jsonl_path = log_json_file;
  obs::Logger logger(log_opts);
  if (!logger.sink_status().ok()) {
    std::fprintf(stderr, "gpures-corrupt: %s\n",
                 logger.sink_status().error().message.c_str());
    return 1;
  }
  obs::Logger::install(&logger);

  const auto spec = chaos::CorruptionSpec::parse(faults);
  if (!spec.ok()) {
    logger.error("corrupt", spec.error().message);
    return 2;
  }

  const auto corrupted = chaos::corrupt_dataset(in_dir, out_dir, seed,
                                                spec.value());
  if (!corrupted.ok()) {
    logger.error("corrupt", corrupted.error().message);
    return 1;
  }
  chaos::CorruptionLedger l = corrupted.value();
  if (!chaos_io_fault.empty()) {
    // Record the requested runtime fault plan in the ledger so a harness can
    // arm exactly this spec on the reader side.  It overrides whatever the
    // io-fault fault picked; the dataset bytes are untouched.
    auto plan = common::parse_io_fault_spec(chaos_io_fault);
    if (!plan.ok()) {
      std::fprintf(stderr, "gpures-corrupt: --chaos-io-fault: %s\n",
                   plan.error().message.c_str());
      return 2;
    }
    l.io_fault_path = plan.value().path_substring;
    l.io_fault_after_bytes = plan.value().fail_after_bytes;
    l.io_fault_kind = std::string(common::to_string(plan.value().kind));
    l.io_fault_times = plan.value().times;
    const auto st =
        l.write(std::filesystem::path(out_dir) / "corruption_ledger.json");
    if (!st.ok()) {
      logger.error("corrupt", "ledger write failed",
                   {{"path", out_dir}, {"error", st.error().message}});
      return 1;
    }
  }
  if (!ledger_file.empty()) {
    const auto st = l.write(ledger_file);
    if (!st.ok()) {
      logger.error("corrupt", "ledger write failed",
                   {{"path", ledger_file}, {"error", st.error().message}});
      return 1;
    }
  }
  logger.info(
      "corrupt", "corrupted dataset",
      {{"in", in_dir},
       {"out", out_dir},
       {"seed", l.seed},
       {"fault_applications", static_cast<std::uint64_t>(l.applied.size())},
       {"binary_lines", l.expect_binary_lines},
       {"overlong_lines", l.expect_overlong_lines},
       {"torn_lines", l.expect_torn_lines},
       {"missing_days", l.expect_missing_days},
       {"zero_byte_days", l.expect_zero_byte_days},
       {"accounting_missing", l.expect_accounting_missing},
       {"accounting_rejected_rows", l.expect_accounting_rejected_rows},
       {"unknown_hosts", l.expect_unknown_hosts}});
  if (!l.io_fault_path.empty()) {
    logger.info("corrupt", "planned I/O fault armed",
                {{"path", l.io_fault_path},
                 {"after_bytes", l.io_fault_after_bytes},
                 {"kind", l.io_fault_kind},
                 {"times", l.io_fault_times},
                 {"hint", "pass --chaos-io-fault to the analyzer to trigger"}});
  }
  return 0;
}
