// Day-bucketed log streaming.
//
// Delta consolidates system logs per day across all nodes; the pipeline's
// Stage I consumes day files.  DayLogStream reproduces that artifact shape
// without holding the whole campaign's multi-million-line log in memory: the
// simulator appends lines in rough time order into one DayBuffer arena per
// open day, and whole days are flushed (slices stably sorted by timestamp)
// to a consumer as soon as they are complete.  Emitters render in place via
// append_with, so a day's worth of log text is built with zero per-line
// heap allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "logsys/day_buffer.h"

namespace gpures::logsys {

/// One raw log line with the timestamp used for bucketing/sorting.  Kept as
/// the convenience unit for tests and small fixtures; the streaming path
/// itself stores lines in DayBuffer arenas.
struct RawLine {
  common::TimePoint time = 0;
  std::string text;
};

class DayLogStream {
 public:
  /// Called once per finished day with that day's midnight and its arena,
  /// slices sorted by time (stable).
  using DayConsumer =
      std::function<void(common::TimePoint day_start, DayBuffer&&)>;

  explicit DayLogStream(DayConsumer consumer);

  /// Append a line (mostly in time order; small backwards jitter is fine).
  void append(common::TimePoint t, std::string_view text) {
    append_with(t, [text](std::string& out) { out.append(text); });
  }

  /// Append a line rendered directly into the day's arena: `render` receives
  /// the arena string and appends the line text (no trailing newline).  This
  /// is the zero-allocation emit path.
  template <typename RenderFn>
  void append_with(common::TimePoint t, RenderFn&& render) {
    render(open_line(t));
    close_line();
  }

  /// Append every line of `lines`, in its slice order, after the lines
  /// already appended to `day_start`'s day (DayBuffer::splice).  All of
  /// `lines` must fall on that day; an empty buffer opens no day.
  void splice(common::TimePoint day_start, const DayBuffer& lines);

  /// Flush every day that ends strictly before `t`'s day.
  void flush_through(common::TimePoint t);

  /// Flush everything (end of campaign).
  void finalize();

  std::uint64_t lines_appended() const { return appended_; }
  std::uint64_t days_flushed() const { return flushed_; }

 private:
  std::string& open_line(common::TimePoint t);
  void close_line();
  void flush_day(std::int64_t day);

  DayConsumer consumer_;
  std::map<std::int64_t, DayBuffer> buffers_;  ///< by day index
  DayBuffer* open_buffer_ = nullptr;           ///< buffer of the open line
  std::int64_t min_open_day_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t appended_ = 0;
  std::uint64_t flushed_ = 0;
};

/// Convenience: write one day's lines as text (one per line) to a string —
/// used by tests and by examples that materialize day files on disk.
std::string render_day(const std::vector<RawLine>& lines);

}  // namespace gpures::logsys
