#include "logsys/log_store.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gpures::logsys {

DayLogStream::DayLogStream(DayConsumer consumer)
    : consumer_(std::move(consumer)) {
  if (!consumer_) throw std::invalid_argument("DayLogStream: null consumer");
}

std::string& DayLogStream::open_line(common::TimePoint t) {
  const std::int64_t day = common::day_index(t);
  if (day < min_open_day_) {
    throw std::logic_error("DayLogStream: line appended to already-flushed day");
  }
  open_buffer_ = &buffers_[day];
  return open_buffer_->open_line(t);
}

void DayLogStream::close_line() {
  open_buffer_->close_line();
  open_buffer_ = nullptr;
  ++appended_;
}

void DayLogStream::splice(common::TimePoint day_start, const DayBuffer& lines) {
  if (lines.empty()) return;
  const std::int64_t day = common::day_index(day_start);
  if (day < min_open_day_) {
    throw std::logic_error("DayLogStream: lines spliced into already-flushed day");
  }
  buffers_[day].splice(lines);
  appended_ += lines.size();
}

void DayLogStream::flush_through(common::TimePoint t) {
  const std::int64_t cutoff = common::day_index(t);
  while (!buffers_.empty() && buffers_.begin()->first < cutoff) {
    flush_day(buffers_.begin()->first);
  }
  min_open_day_ = std::max(min_open_day_, cutoff);
}

void DayLogStream::finalize() {
  while (!buffers_.empty()) {
    flush_day(buffers_.begin()->first);
  }
}

void DayLogStream::flush_day(std::int64_t day) {
  auto it = buffers_.find(day);
  if (it == buffers_.end()) return;
  DayBuffer buf = std::move(it->second);
  buffers_.erase(it);
  buf.sort_by_time();
  ++flushed_;
  consumer_(day * common::kDay, std::move(buf));
}

std::string render_day(const std::vector<RawLine>& lines) {
  std::string out;
  std::size_t total = 0;
  for (const auto& l : lines) total += l.text.size() + 1;
  out.reserve(total);
  for (const auto& l : lines) {
    out += l.text;
    out += '\n';
  }
  return out;
}

}  // namespace gpures::logsys
