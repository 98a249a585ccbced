// Crash-safe, append-only checkpoints for the follow-mode serve daemon.
//
// Generation <seq> of a checkpoint is two files in the checkpoint directory:
//
//  * seg-<seq>.bin, a *segment*: the errors, lifecycle records and job rows
//    (with their spilled GPU lists) emitted since generation seq-1.  Until
//    finalize() the emitted state only grows at the end, so a segment is
//    written once and never rewritten; concatenating seg-1 .. seg-<seq>
//    reproduces everything emitted up to generation seq.
//  * ckpt-<seq>.bin, a *manifest*: the small state that does change between
//    checkpoints — per-source byte offsets and quality tallies, the
//    accounting-tail cursor, strays, the coalescer's open groups, the
//    watermark — plus a (seq, bytes, XXH64) entry for every segment of the
//    generation.
//
// A checkpoint therefore costs the rows emitted since the previous one plus
// one manifest, not everything emitted so far.  Because the serve loop is
// deterministic given (dataset bytes, config), restoring a generation and
// replaying the remaining ticks reproduces the exact byte sequence an
// uninterrupted run would have produced — the property the kill-resume
// differential suite asserts.
//
// Both kinds of file use one frame in the gpures.idx style: a fixed 40-byte
// header (magic, version, endian tag, payload size, payload XXH64, header
// XXH64) ahead of a little-endian, length-prefixed payload; manifests and
// segments differ only in their magic.  Each is written via
// common::write_file_atomic, segment first, so a crash between the two
// leaves the previous generation intact plus an orphan segment that the next
// checkpoint overwrites.
//
// Recovery (CheckpointStore::load_latest) walks manifests newest first.  A
// generation is usable only when its manifest verifies and every segment it
// lists matches the recorded size and hash — all checked before any is
// parsed.  The store keeps the newest two manifests, so a corrupt newest
// manifest or newest segment falls back one generation; a corrupt segment
// both generations share leaves nothing usable, and the run starts fresh.
// Either way the outcome is a clean fallback, never a crash.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/extraction.h"
#include "analysis/job_stats.h"
#include "analysis/stages.h"
#include "common/error.h"
#include "common/time.h"
#include "logsys/day_buffer.h"

namespace gpures::serve {

inline constexpr char kCheckpointMagic[8] = {'G', 'P', 'U', 'R',
                                             'E', 'S', 'C', 'K'};
inline constexpr char kSegmentMagic[8] = {'G', 'P', 'U', 'R',
                                          'E', 'S', 'S', 'G'};
/// Version 1 was a single full snapshot per generation; it is refused.
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::uint32_t kCheckpointEndianTag = 0x01020304u;
/// magic(8) + version(4) + endian(4) + payload_size(8) + payload_hash(8) +
/// header_hash(8).
inline constexpr std::size_t kCheckpointHeaderSize = 40;

/// Persistent slice of one tailed day file's state.
struct SourceSnapshot {
  std::string name;              ///< file name (syslog-YYYY-MM-DD.log)
  common::TimePoint date = 0;
  std::uint64_t offset = 0;      ///< consumed bytes (always a line boundary,
                                 ///< except after the final torn fragment)
  std::uint64_t lines_seen = 0;  ///< physical lines consumed
  bool existed = false;          ///< a stat/read ever saw the file
  bool sealed = false;           ///< fully consumed, quality recorded
  bool degraded = false;         ///< quarantined after retry exhaustion
  bool recovered = false;        ///< degraded, but a later re-probe succeeded
  std::string degrade_reason;
  std::uint64_t last_progress_tick = 0;
  common::TimePoint last_event = 0;  ///< per-source watermark
  logsys::ScreenCounts counts;       ///< cumulative across chunks
};

/// Persistent accounting-tail state.
struct AccountingSnapshot {
  bool seen = false;  ///< the dump existed at least once
  bool degraded = false;
  std::string degrade_reason;
  std::uint64_t offset = 0;   ///< consumed bytes (line boundary)
  std::uint64_t line_no = 0;  ///< physical lines consumed
  std::uint64_t rows_kept = 0;
  std::uint64_t rows_rejected = 0;
  std::uint64_t bytes_rejected = 0;
};

/// The pipeline's emitted rows (append-only until finalize()) and their
/// row counts.
using EmittedRows = analysis::EmittedRows;
using EmittedCounts = analysis::EmittedCounts;

/// A manifest's record of one segment file.
struct SegmentRef {
  std::uint64_t seq = 0;
  std::uint64_t bytes = 0;  ///< file size
  std::uint64_t hash = 0;   ///< XXH64 of the whole file
};

/// Everything a resumed daemon needs besides the emitted rows.
struct CheckpointManifest {
  std::uint64_t config_hash = 0;  ///< guard: resume must match the run config
  std::uint64_t seq = 0;          ///< checkpoint generation (1-based)
  std::uint64_t tick = 0;         ///< tick count at snapshot time
  common::TimePoint watermark = 0;
  std::vector<SourceSnapshot> sources;  ///< date order
  AccountingSnapshot accounting;
  std::vector<std::string> stray_files;  ///< observed so far, sorted
  analysis::CoalescerState coalescer;
  EmittedCounts emitted;              ///< rows the segments hold in total
  std::vector<SegmentRef> segments;   ///< seg-1 .. seg-<seq>, in order
};

/// The rows one segment holds: a view of what was emitted since the
/// previous checkpoint.  Job spill_index values stay absolute.
struct SegmentRows {
  std::span<const analysis::CoalescedError> errors;
  std::span<const analysis::LifecycleRecord> lifecycle;
  std::span<const analysis::JobView> jobs;
  std::span<const std::vector<analysis::PackedGpu>> spill;

  /// The rows of `all` past the first `from` of each kind.
  static SegmentRows since(const EmittedRows& all, const EmittedCounts& from);
};

/// A verified generation: its manifest and the rows of all its segments.
struct Checkpoint {
  CheckpointManifest manifest;
  EmittedRows rows;
};

/// Serialize a manifest to its on-disk bytes (header + checksummed payload).
std::string serialize_manifest(const CheckpointManifest& m);

/// Parse and verify a manifest image.  Any corruption — bad magic, wrong
/// version, size mismatch, checksum mismatch, truncated field, a segment
/// list that is not seg-1 .. seg-<seq> — returns an Error describing the
/// defect; it never crashes.
common::Result<CheckpointManifest> parse_manifest(std::string_view bytes);

/// Serialize segment `seq` holding `rows`.
std::string serialize_segment(std::uint64_t seq, const SegmentRows& rows);

/// Parse and verify segment `seq`, appending its rows to `out`.  On error
/// `out` may hold a partial append and should be discarded.
common::Status parse_segment(std::string_view bytes, std::uint64_t seq,
                             EmittedRows& out);

/// On-disk checkpoint store: `dir/seg-<seq>.bin` and `dir/ckpt-<seq>.bin`.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::filesystem::path dir);

  /// Atomically write segment `seq`; returns the manifest entry for it.
  common::Result<SegmentRef> write_segment(std::uint64_t seq,
                                           const SegmentRows& rows) const;

  /// Atomically write manifest m.seq (its segments must already be on disk),
  /// then prune every other manifest but m.seq - 1 and every segment newer
  /// than m.seq.  Returns the manifest's size in bytes.
  common::Result<std::uint64_t> write_manifest(
      const CheckpointManifest& m) const;

  /// Load the newest generation that verifies.  Corrupt generations are
  /// reported through `note` and skipped (clean fallback); an empty optional
  /// means no usable generation exists (fresh start).
  common::Result<std::optional<Checkpoint>> load_latest(
      const std::function<void(const std::string&)>& note) const;

  /// Where manifest / segment `seq` lives (exposed for tests and chaos).
  std::filesystem::path manifest_path(std::uint64_t seq) const;
  std::filesystem::path segment_path(std::uint64_t seq) const;

  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

}  // namespace gpures::serve
