// Contiguous per-day log arena.
//
// The seed data model kept every simulated syslog line as its own heap
// std::string (logsys::RawLine); at paper scale — hundreds of millions of
// lines, one faulty GPU alone emitting >1M lines in 17 days — that is one
// allocation, one copy, and one pointer chase per line on both the emit and
// the parse path.  DayBuffer replaces it with the arena discipline of
// high-throughput solvers: one char buffer per day plus a flat vector of
// {time, offset, len} slices.  Emitters append straight into the arena,
// sorting permutes 24-byte slices instead of strings, writers gather the
// arena's maximal contiguous runs into large writes, and Stage-I parses
// std::string_view slices with zero per-line copies.
//
// Invariants:
//  - Every slice's text occupies arena[offset, offset+len) and is followed
//    by exactly one '\n' at arena[offset+len].  (from_text appends a final
//    '\n' if the source file lacked one, so the invariant is unconditional.)
//  - Slice text never contains '\n'.
//  - `slices` is the only ordering that matters; sort_by_time() permutes it
//    stably, so equal timestamps keep emission order and the rendered bytes
//    are identical to the seed's stable_sort over RawLine strings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/time.h"

namespace gpures::logsys {

/// One log line inside a DayBuffer arena: bucketing/sorting timestamp plus
/// the [offset, offset+len) extent of the text (newline excluded).
struct LineSlice {
  common::TimePoint time = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
};

/// Ingestion screen applied while slicing a loaded day file: lines that can
/// only be corruption — not merely "noise Stage I will reject" — are
/// excluded from the buffer and tallied so the loader can quarantine
/// (lenient) or fail fast (strict).  On clean simulator output the screen
/// matches nothing, so screened and unscreened slicing are byte-identical.
struct LineScreen {
  /// Longest plausible log line; anything longer is quarantined.  Simulator
  /// lines top out well under 300 bytes; real syslog lines under 2 KiB.
  std::uint32_t max_line_len = 8192;
};

/// Per-file tallies produced by the screen.  Quarantined lines fall in
/// exactly one category (checked in order: torn, overlong, binary), so
/// lines and bytes sum exactly — the reconciliation contract the chaos
/// harness asserts against the corrupter's ledger.
struct ScreenCounts {
  std::uint64_t kept_lines = 0;
  std::uint64_t kept_bytes = 0;      ///< slice text bytes, newlines excluded
  std::uint64_t binary_lines = 0;    ///< control bytes other than '\t'
  std::uint64_t binary_bytes = 0;
  std::uint64_t overlong_lines = 0;  ///< longer than LineScreen::max_line_len
  std::uint64_t overlong_bytes = 0;
  std::uint64_t torn_lines = 0;      ///< newline-less fragment at EOF (0|1)
  std::uint64_t torn_bytes = 0;
  /// '\r' bytes stripped from CRLF line terminators.  Terminator bytes, not
  /// content: excluded from both kept and quarantined byte counts, like the
  /// '\n' they precede.  Nonzero means the file was a CRLF archive.
  std::uint64_t crlf_bytes = 0;
  // First offense, for strict-mode errors naming the exact spot.
  std::uint64_t first_line = 0;     ///< 1-based physical line; 0 = clean
  std::uint64_t first_offset = 0;   ///< byte offset of the offending line
  const char* first_category = nullptr;

  std::uint64_t quarantined_lines() const {
    return binary_lines + overlong_lines + torn_lines;
  }
  std::uint64_t quarantined_bytes() const {
    return binary_bytes + overlong_bytes + torn_bytes;
  }
};

class DayBuffer {
 public:
  DayBuffer() = default;

  // Movable, not copyable: a day can be tens of MB and accidental copies are
  // exactly the cost this type exists to remove.
  DayBuffer(const DayBuffer&) = delete;
  DayBuffer& operator=(const DayBuffer&) = delete;
  DayBuffer(DayBuffer&&) = default;
  DayBuffer& operator=(DayBuffer&&) = default;

  /// Start a line at `t` and hand the caller the arena to append the line
  /// text into (no trailing newline).  Must be paired with close_line().
  std::string& open_line(common::TimePoint t) {
    common::check(!open_, "DayBuffer: open_line with a line already open");
    open_ = true;
    pending_time_ = t;
    pending_offset_ = arena_.size();
    return arena_;
  }

  /// Seal the line opened by open_line(): record its slice and terminate it
  /// with '\n' in the arena.
  void close_line() {
    common::check(open_, "DayBuffer: close_line without open_line");
    open_ = false;
    const std::uint64_t len = arena_.size() - pending_offset_;
    arena_.push_back('\n');
    slices_.push_back(LineSlice{pending_time_, pending_offset_,
                                static_cast<std::uint32_t>(len)});
  }

  /// Append a complete line (convenience over open_line/close_line).
  void append(common::TimePoint t, std::string_view text) {
    open_line(t).append(text);
    close_line();
  }

  /// Build a DayBuffer by taking ownership of a loaded day file: the text is
  /// moved (not copied) into the arena and sliced on '\n'.  Empty lines are
  /// skipped, matching the pipeline's line ingestion; every slice gets
  /// `default_time` (day files carry their real timestamps in the text).
  static DayBuffer from_text(common::TimePoint default_time, std::string&& text);

  /// from_text with an ingestion screen: quarantinable lines (binary,
  /// overlong, torn EOF fragment) are excluded from the slices and tallied
  /// into `counts`.  With no offending lines the result is identical to
  /// from_text — same arena bytes, same slices.
  static DayBuffer from_text(common::TimePoint default_time, std::string&& text,
                             const LineScreen& screen, ScreenCounts& counts);

  std::size_t size() const { return slices_.size(); }
  bool empty() const { return slices_.empty(); }

  common::TimePoint time(std::size_t i) const { return slices_[i].time; }

  /// Line text without the trailing newline.  Borrowed from the arena: valid
  /// until the buffer is destroyed or cleared (slices never move the arena).
  std::string_view line(std::size_t i) const {
    const LineSlice& s = slices_[i];
    return std::string_view(arena_).substr(s.offset, s.len);
  }

  const std::string& arena() const { return arena_; }
  const std::vector<LineSlice>& slices() const { return slices_; }

  /// Total arena bytes (line texts + newlines).
  std::uint64_t bytes() const { return arena_.size(); }

  /// Pre-size for an expected day (called once per day, not per line).
  void reserve(std::size_t lines, std::size_t arena_bytes) {
    slices_.reserve(lines);
    arena_.reserve(arena_bytes);
  }

  void clear() {
    arena_.clear();
    slices_.clear();
    open_ = false;
  }

  /// Append every line of `tail` after this buffer's lines: its arena bytes
  /// are copied to the end of this arena and its slices follow, shifted, in
  /// their own order.  The result is the buffer that appending `tail`'s
  /// lines here one by one would have built.
  void splice(const DayBuffer& tail);

  /// Stable sort of the slices by time: equal timestamps keep append order,
  /// so rendered output is byte-identical to sorting the old per-line
  /// strings.  The arena itself never moves.  Already-sorted slices cost
  /// one scan; a span of seconds no wider than kCountingSpanPerLine per
  /// line is counting-sorted in linear time; anything wider falls back to
  /// std::stable_sort.
  void sort_by_time();

  /// Widest time span, in seconds per line, that sort_by_time() counting-
  /// sorts.  A busy day (tens of thousands of lines over 86,400 s) stays
  /// under it; a quiet one (hundreds of lines) takes std::stable_sort,
  /// which beats clearing a day's worth of counters.
  static constexpr std::uint64_t kCountingSpanPerLine = 16;

  /// Visit the sorted lines as maximal contiguous arena runs (newlines
  /// included), so a fully in-order day becomes a single write syscall.
  /// `fn` receives std::string_view chunks in output order.
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    std::size_t i = 0;
    while (i < slices_.size()) {
      const std::uint64_t start = slices_[i].offset;
      std::uint64_t end = slices_[i].offset + slices_[i].len + 1;  // + '\n'
      ++i;
      while (i < slices_.size() && slices_[i].offset == end) {
        end = slices_[i].offset + slices_[i].len + 1;
        ++i;
      }
      fn(std::string_view(arena_).substr(start, end - start));
    }
  }

 private:
  std::string arena_;
  std::vector<LineSlice> slices_;
  common::TimePoint pending_time_ = 0;
  std::uint64_t pending_offset_ = 0;
  bool open_ = false;
};

/// Render the buffer's lines in slice order, one per line with trailing
/// newlines — the view the old render_day(vector<RawLine>) used to copy.
std::string render_day(const DayBuffer& buf);

}  // namespace gpures::logsys
