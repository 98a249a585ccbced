// Deterministic dataset corrupter for chaos-testing the ingestion path.
//
// Real three-year syslog archives do not arrive pristine: files get torn by
// crashed collectors, interleaved with binary garbage, truncated to zero by
// full disks, or simply lost.  This library takes a *clean* dataset
// directory and produces a corrupted copy exhibiting a requested fault
// matrix, reproducibly from (seed, spec): the same pair always yields the
// same corrupted bytes.
//
// Every fault application is recorded in a CorruptionLedger that states, in
// the same categories the loader's DataQualityReport uses, exactly what a
// lenient ingest of the corrupted copy must observe (quarantined lines and
// bytes per category, missing/zero-byte days, rejected accounting rows).
// Tests and the CI chaos job reconcile ledger against report — if the two
// ever disagree, either the corrupter or the loader is lying about a byte.
//
// Fault applications target *disjoint* day files (a shuffled day list is
// consumed left to right), so per-category expectations never collide.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace gpures::chaos {

/// One kind of injected corruption.  Line-level faults corrupt lines within
/// a single (fresh) day file; file-level faults consume `count` day files.
enum class Fault : std::uint8_t {
  kTruncate,           ///< tear the final line of a day file (no trailing \n)
  kGarbage,            ///< inject binary-garbage lines into a day file
  kOverlong,           ///< inject printable lines longer than the line screen
  kDuplicate,          ///< duplicate existing lines (valid but repeated data)
  kReorder,            ///< shuffle a day file's line order
  kMissingDay,         ///< delete whole day files (coverage gaps)
  kMissingAccounting,  ///< delete slurm_accounting.txt
  kSkew,               ///< shift syslog timestamps by +12 h (clock skew)
  kBadAccounting,      ///< malform accounting data rows (extra field)
  kZeroByte,           ///< truncate day files to zero bytes
  kIoFault,            ///< plan a mid-read I/O failure on one day file
  kUnknownHost,        ///< rename the host of XID lines to one off the topology
};

std::string_view to_string(Fault fault);

/// One fault with its magnitude: lines to inject/corrupt for line-level
/// faults, files to consume for file-level ones (ignored for
/// missing-accounting and io-fault, which are singular).
struct FaultSpec {
  Fault fault = Fault::kGarbage;
  std::uint64_t count = 1;
};

/// A parsed fault matrix.
struct CorruptionSpec {
  std::vector<FaultSpec> faults;

  /// Parse a comma-separated spec: "fault[:count],...", e.g.
  /// "garbage:5,truncate,missing-day:2".  The name "all" expands to the
  /// full fault matrix with default counts.  Unknown names and bad counts
  /// are errors naming the offending token.
  static common::Result<CorruptionSpec> parse(std::string_view text);

  /// Canonical render ("garbage:5,truncate:1,...") — parse(canonical()) is
  /// the identity, and the ledger records it for reproduction.
  std::string canonical() const;
};

/// Machine-readable record of what was done and what a lenient ingest of
/// the corrupted copy must observe.
struct CorruptionLedger {
  std::uint64_t seed = 0;
  std::string spec;  ///< canonical spec string

  /// One entry per fault application that actually touched a file.
  struct Applied {
    std::string fault;
    std::string file;         ///< file name, or "" for dataset-level faults
    std::uint64_t count = 0;  ///< lines corrupted / files consumed
  };
  std::vector<Applied> applied;

  // ---- observable expectations (lenient ingest of the corrupted copy) ----
  // Byte counts exclude line terminators, matching ScreenCounts.
  std::uint64_t expect_binary_lines = 0;
  std::uint64_t expect_binary_bytes = 0;
  std::uint64_t expect_overlong_lines = 0;
  std::uint64_t expect_overlong_bytes = 0;
  std::uint64_t expect_torn_lines = 0;
  std::uint64_t expect_torn_bytes = 0;
  std::uint64_t expect_missing_days = 0;
  std::uint64_t expect_zero_byte_days = 0;
  /// Days skipped as unreadable *when the recorded I/O fault is armed*.
  std::uint64_t expect_skipped_days = 0;
  bool expect_accounting_missing = false;
  std::uint64_t expect_accounting_rejected_rows = 0;
  std::uint64_t expect_accounting_rejected_bytes = 0;
  /// XID records Stage I must drop as unresolvable (pipe.unknown_hosts).
  std::uint64_t expect_unknown_hosts = 0;

  // ---- runtime fault plan (not materialized on disk) ----
  /// When non-empty, arm common::IoFaultPlan{io_fault_path,
  /// io_fault_after_bytes, kind, times} before loading to trigger the
  /// planned failure.  `io_fault_kind` is the canonical kind name
  /// ("fail", "transient", "eintr", "short-read"); transient kinds carry
  /// `io_fault_times` (how many operations fail before recovery), so a
  /// retrying reader — gpures-serve — is expected to absorb them while a
  /// single-shot batch read still fails.
  std::string io_fault_path;
  std::uint64_t io_fault_after_bytes = 0;
  std::string io_fault_kind = "fail";
  std::uint64_t io_fault_times = 0;

  std::string to_json() const;
  /// Write to_json() to `path` (the corrupter drops it next to the dataset
  /// as corruption_ledger.json; the loader never reads it).
  common::Status write(const std::filesystem::path& path) const;
};

/// Line length beyond which the loader's default screen quarantines a line;
/// overlong injections exceed this.  Kept equal to
/// logsys::LineScreen::max_line_len's default.
inline constexpr std::uint64_t kScreenMaxLineLen = 8192;

/// Copy the dataset at `src` to `dst` (created if needed, files
/// overwritten), applying `spec` with randomness derived purely from
/// `seed`.  Returns the ledger (also written to dst/corruption_ledger.json)
/// or an error.  Requested counts are clamped to the material available
/// (day files, accounting rows); the ledger records what was actually done.
common::Result<CorruptionLedger> corrupt_dataset(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, const CorruptionSpec& spec);

}  // namespace gpures::chaos
