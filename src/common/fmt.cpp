#include "common/fmt.h"

#include <cstring>
#include <string_view>

namespace gpures::common {

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];  // max uint64 is 20 digits
  char* end = buf + sizeof(buf);
  char* p = end;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  out.append(p, static_cast<std::size_t>(end - p));
}

void append_int(std::string& out, std::int64_t v) {
  if (v < 0) {
    out.push_back('-');
    // Negate via uint64 so INT64_MIN doesn't overflow.
    append_uint(out, ~static_cast<std::uint64_t>(v) + 1);
    return;
  }
  append_uint(out, static_cast<std::uint64_t>(v));
}

namespace {

void put_2d(char* p, int v) {
  p[0] = static_cast<char>('0' + (v / 10) % 10);
  p[1] = static_cast<char>('0' + v % 10);
}

}  // namespace

void append_2d(std::string& out, int v) {
  char d[2];
  put_2d(d, v);
  out.append(d, 2);
}

void append_syslog_time(std::string& out, TimePoint tp) {
  // Formatted on the stack and appended once: every emitted line starts
  // with one, and a dozen single-character appends cost more than the
  // calendar arithmetic.
  const CalendarTime ct = to_calendar(tp);
  const std::string_view month = month_abbrev(ct.month);  // always 3 chars
  char buf[15];
  std::memcpy(buf, month.data(), 3);
  buf[3] = ' ';
  if (ct.day < 10) {
    buf[4] = ' ';
    buf[5] = static_cast<char>('0' + ct.day);
  } else {
    put_2d(buf + 4, ct.day);
  }
  buf[6] = ' ';
  put_2d(buf + 7, ct.hour);
  buf[9] = ':';
  put_2d(buf + 10, ct.minute);
  buf[12] = ':';
  put_2d(buf + 13, ct.second);
  out.append(buf, sizeof(buf));
}

}  // namespace gpures::common
