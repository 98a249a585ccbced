// Syslog rendering, the DayBuffer arena, and the day-bucketed log stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "logsys/day_buffer.h"
#include "logsys/log_store.h"
#include "logsys/syslog.h"

namespace ls = gpures::logsys;
namespace ct = gpures::common;
namespace gx = gpures::xid;

TEST(Syslog, XidLineFormat) {
  const auto t = ct::to_timepoint({2022, 5, 5, 7, 23, 1});
  const auto line = ls::render_xid_line(t, "gpua042", "0000:27:00",
                                        gx::Code::kUncontainedEccError,
                                        "Uncontained ECC error.");
  EXPECT_EQ(line,
            "May  5 07:23:01 gpua042 kernel: NVRM: Xid (PCI:0000:27:00): 95, "
            "Uncontained ECC error.");
}

TEST(Syslog, DrainAndResumeLines) {
  const auto t = ct::to_timepoint({2022, 10, 12, 8, 11, 2});
  EXPECT_EQ(ls::render_drain_line(t, "gpua042"),
            "Oct 12 08:11:02 gpua042 slurmctld[2112]: update_node: node "
            "gpua042 reason set to: gpu_health_check_failed [drain]");
  EXPECT_EQ(ls::render_resume_line(t, "gpua042"),
            "Oct 12 08:11:02 gpua042 slurmctld[2112]: update_node: node "
            "gpua042 state set to: resume");
}

TEST(Syslog, NoiseLinesNeverLookLikeXid) {
  ct::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto line = ls::render_noise_line(rng, 1000000 + i, "gpua001");
    EXPECT_EQ(line.find("NVRM: Xid"), std::string::npos);
    EXPECT_EQ(line.find("update_node"), std::string::npos);
    EXPECT_FALSE(line.empty());
  }
}

TEST(Syslog, AppendersMatchRenderers) {
  // The append_* arena variants and the render_* wrappers must be
  // byte-identical (the emit path uses the former, tests the latter).
  ct::Rng rng_a(7);
  ct::Rng rng_b(7);
  const auto t = ct::to_timepoint({2023, 1, 9, 23, 59, 58});
  std::string out;
  ls::append_xid_line(out, t, "gpub007", "0000:A7:00",
                      gx::Code::kFallenOffBus,
                      "pid=77, GPU has fallen off the bus.");
  EXPECT_EQ(out, ls::render_xid_line(t, "gpub007", "0000:A7:00",
                                     gx::Code::kFallenOffBus,
                                     "pid=77, GPU has fallen off the bus."));
  out.clear();
  ls::append_drain_line(out, t, "gpub007");
  EXPECT_EQ(out, ls::render_drain_line(t, "gpub007"));
  out.clear();
  ls::append_resume_line(out, t, "gpub007");
  EXPECT_EQ(out, ls::render_resume_line(t, "gpub007"));
  for (int i = 0; i < 500; ++i) {
    out.clear();
    ls::append_noise_line(out, rng_a, t + i, "gpub007");
    EXPECT_EQ(out, ls::render_noise_line(rng_b, t + i, "gpub007"));
  }
}

TEST(Syslog, NoiseLinesArePinnedForASeed) {
  // One seed renders the same lines under every compiler: the template and
  // its four field values are drawn in a fixed order.  The first 16 lines
  // of Rng(2024) cover all eight templates.
  ct::Rng rng(2024);
  const auto t = ct::to_timepoint({2023, 3, 7, 14, 5, 9});
  const std::vector<std::string> expected = {
      "sshd[24209]: Accepted publickey for user153 from 10.0.18.195",
      "systemd[1]: Started Session 2520 of user hpcuser511.",
      "ntpd[24202]: adjusting local clock by 339.220s",
      "systemd[1]: Started Session 13057 of user hpcuser739.",
      "ntpd[15400]: adjusting local clock by 386.48s",
      "sshd[18554]: Accepted publickey for user469 from 10.0.60.125",
      "munged[26355]: Purged 126 credentials from replay cache",
      "kernel: EDAC MC0: 1 CE memory read error on CPU_SrcID#0_MC#29621 "
      "(channel:218 slot:0)",
      "munged[10954]: Purged 253 credentials from replay cache",
      "slurmd[13343]: launch task StepId=808.0 request from UID:86",
      "kernel: Lustre: 26663:0:(client.c:2114) Skipped 659 previous similar "
      "messages",
      "slurmd[1516]: launch task StepId=668.0 request from UID:92",
      "systemd[1]: Started Session 28194 of user hpcuser857.",
      "ntpd[8607]: adjusting local clock by 764.237s",
      "sshd[18128]: Accepted publickey for user456 from 10.0.189.45",
      "kernel: perf: interrupt took too long (8863 > 55), lowering rate",
  };
  for (const auto& body : expected) {
    EXPECT_EQ(ls::render_noise_line(rng, t, "gpua017"),
              "Mar  7 14:05:09 gpua017 " + body);
  }
}

TEST(DayBuffer, AppendAndSliceAccess) {
  ls::DayBuffer buf;
  buf.append(5, "hello");
  buf.append(3, "world!");
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.line(0), "hello");
  EXPECT_EQ(buf.line(1), "world!");
  EXPECT_EQ(buf.time(0), 5);
  EXPECT_EQ(buf.time(1), 3);
  EXPECT_EQ(buf.arena(), "hello\nworld!\n");
  EXPECT_EQ(buf.bytes(), 13u);
}

TEST(DayBuffer, SortPermutesSlicesNotArena) {
  ls::DayBuffer buf;
  buf.append(5, "b");
  buf.append(3, "a");
  buf.sort_by_time();
  EXPECT_EQ(buf.line(0), "a");
  EXPECT_EQ(buf.line(1), "b");
  EXPECT_EQ(buf.arena(), "b\na\n");  // bytes never move
  EXPECT_EQ(ls::render_day(buf), "a\nb\n");
}

TEST(DayBuffer, StableSortKeepsEqualTimesInAppendOrder) {
  ls::DayBuffer buf;
  buf.append(9, "late");
  buf.append(7, "first");
  buf.append(7, "second");
  buf.append(7, "third");
  buf.append(1, "early");
  buf.sort_by_time();
  EXPECT_EQ(buf.line(0), "early");
  EXPECT_EQ(buf.line(1), "first");
  EXPECT_EQ(buf.line(2), "second");
  EXPECT_EQ(buf.line(3), "third");
  EXPECT_EQ(buf.line(4), "late");
}

namespace {

/// The reference order: std::stable_sort of the slices by time.
std::vector<ls::LineSlice> stable_sorted(std::vector<ls::LineSlice> slices) {
  std::stable_sort(slices.begin(), slices.end(),
                   [](const ls::LineSlice& a, const ls::LineSlice& b) {
                     return a.time < b.time;
                   });
  return slices;
}

void expect_same_slices(const std::vector<ls::LineSlice>& got,
                        const std::vector<ls::LineSlice>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << what << " slice " << i;
    EXPECT_EQ(got[i].offset, want[i].offset) << what << " slice " << i;
    EXPECT_EQ(got[i].len, want[i].len) << what << " slice " << i;
  }
}

/// `lines` lines with times drawn from [base, base + width], one-letter
/// texts; `width` 0 makes every time equal.
ls::DayBuffer random_day(ct::Rng& rng, std::size_t lines, ct::TimePoint base,
                         std::uint64_t width) {
  ls::DayBuffer buf;
  for (std::size_t i = 0; i < lines; ++i) {
    const auto t = base + static_cast<ct::Duration>(rng.uniform_u64(width + 1));
    buf.append(t, std::string(1 + rng.uniform_u64(3), 'a'));
  }
  return buf;
}

}  // namespace

TEST(DayBuffer, SortByTimeMatchesStableSort) {
  // Every path of sort_by_time (already sorted, counting sort, the
  // std::stable_sort fallback) must give exactly stable_sort's order.
  ct::Rng rng(99);
  const auto day = ct::make_date(2023, 2, 1);
  struct Case {
    const char* what;
    std::size_t lines;
    std::uint64_t width;
  };
  const std::vector<Case> cases = {
      {"one slice", 1, 100},
      {"equal times", 500, 0},
      {"dense ties", 5000, 10},
      {"busy day (counting path)", 20000, ct::kDay},
      {"span at the counting limit", 64,
       ls::DayBuffer::kCountingSpanPerLine * 64 - 1},
      {"span past the counting limit", 64,
       ls::DayBuffer::kCountingSpanPerLine * 64 + 1},
      {"quiet day (stable_sort path)", 300, ct::kDay},
  };
  for (const auto& c : cases) {
    for (int round = 0; round < 5; ++round) {
      auto buf = random_day(rng, c.lines, day, c.width);
      const auto want = stable_sorted(buf.slices());
      buf.sort_by_time();
      expect_same_slices(buf.slices(), want, c.what);
      // Sorting a sorted buffer changes nothing.
      buf.sort_by_time();
      expect_same_slices(buf.slices(), want, std::string(c.what) + " again");
    }
  }
  ls::DayBuffer empty;
  empty.sort_by_time();
  EXPECT_TRUE(empty.empty());
}

TEST(DayBuffer, SortByTimeKeepsFromTextOrder) {
  // A loaded day file gives every slice the same default time: sorting
  // keeps the file's line order.
  auto buf = ls::DayBuffer::from_text(42, std::string("c\nb\n\na\n"));
  const auto want = stable_sorted(buf.slices());
  buf.sort_by_time();
  expect_same_slices(buf.slices(), want, "from_text");
  EXPECT_EQ(ls::render_day(buf), "c\nb\na\n");
}

TEST(DayBuffer, SpliceEqualsAppendingLineByLine) {
  ls::DayBuffer head;
  head.append(30, "xid");
  head.append(10, "drain");
  ls::DayBuffer tail;
  tail.append(20, "noise-a");
  tail.append(5, "noise-b");
  ls::DayBuffer direct;
  direct.append(30, "xid");
  direct.append(10, "drain");
  direct.append(20, "noise-a");
  direct.append(5, "noise-b");

  head.splice(tail);
  EXPECT_EQ(head.arena(), direct.arena());
  expect_same_slices(head.slices(), direct.slices(), "splice");
  head.splice(ls::DayBuffer{});  // an empty tail is a no-op
  EXPECT_EQ(head.arena(), direct.arena());
  EXPECT_EQ(tail.size(), 2u);  // the tail is copied, not consumed
}

TEST(DayBuffer, FromTextSlicesAndSkipsEmptyLines) {
  auto buf = ls::DayBuffer::from_text(42, "one\n\ntwo\nthree");
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.line(0), "one");
  EXPECT_EQ(buf.line(1), "two");
  EXPECT_EQ(buf.line(2), "three");
  EXPECT_EQ(buf.time(1), 42);
  // A missing trailing newline is added so every slice is '\n'-terminated.
  EXPECT_EQ(buf.arena().back(), '\n');
}

TEST(DayBuffer, ScreenedFromTextNormalizesCrlf) {
  // CRLF terminators are stripped, not quarantined as binary; line content
  // and the slice invariant (every slice '\n'-terminated) are preserved.
  ls::ScreenCounts counts;
  auto buf = ls::DayBuffer::from_text(42, "one\r\ntwo\r\nthree\r\n",
                                      ls::LineScreen{}, counts);
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.line(0), "one");
  EXPECT_EQ(buf.line(1), "two");
  EXPECT_EQ(buf.line(2), "three");
  EXPECT_EQ(counts.quarantined_lines(), 0u);
  EXPECT_EQ(counts.kept_lines, 3u);
  EXPECT_EQ(counts.kept_bytes, 11u);  // "one" + "two" + "three"
  EXPECT_EQ(counts.crlf_bytes, 3u);
  EXPECT_EQ(ls::render_day(buf), "one\ntwo\nthree\n");
}

TEST(DayBuffer, ScreenedFromTextLoneCrIsStillBinary) {
  // '\r' outside a CRLF terminator (old-Mac line endings, stray control
  // bytes) remains quarantinable; a CRLF file torn between '\r' and '\n'
  // classifies as torn, the higher-priority category.
  ls::ScreenCounts mid;
  auto buf = ls::DayBuffer::from_text(1, "good\nbad\rline\n",
                                      ls::LineScreen{}, mid);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(mid.binary_lines, 1u);
  EXPECT_EQ(mid.crlf_bytes, 0u);

  ls::ScreenCounts torn;
  (void)ls::DayBuffer::from_text(1, "good\r\ntorn tail\r", ls::LineScreen{},
                                 torn);
  EXPECT_EQ(torn.torn_lines, 1u);
  EXPECT_EQ(torn.crlf_bytes, 1u);  // only the intact first terminator
}

TEST(DayBuffer, ForEachRunMergesContiguousSlices) {
  ls::DayBuffer buf;
  buf.append(1, "a");
  buf.append(2, "b");
  buf.append(3, "c");
  // Already sorted: the whole arena is one run.
  int runs = 0;
  std::string joined;
  buf.for_each_run([&](std::string_view run) {
    ++runs;
    joined += run;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(joined, "a\nb\nc\n");

  // Reverse order: every line is its own run, output still sorted.
  ls::DayBuffer rev;
  rev.append(3, "c");
  rev.append(2, "b");
  rev.append(1, "a");
  rev.sort_by_time();
  runs = 0;
  joined.clear();
  rev.for_each_run([&](std::string_view run) {
    ++runs;
    joined += run;
  });
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(joined, "a\nb\nc\n");
}

TEST(DayLogStream, FlushesWholeSortedDays) {
  std::vector<std::pair<ct::TimePoint, ls::DayBuffer>> flushed;
  ls::DayLogStream stream([&](ct::TimePoint day, ls::DayBuffer&& buf) {
    flushed.emplace_back(day, std::move(buf));
  });
  const auto d0 = ct::make_date(2022, 5, 5);
  stream.append(d0 + 100, "b");
  stream.append(d0 + 50, "a");          // out of order within the day
  stream.append(d0 + ct::kDay + 5, "c"); // next day
  EXPECT_EQ(stream.lines_appended(), 3u);

  stream.flush_through(d0 + ct::kDay);  // completes day 0 only
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].first, d0);
  ASSERT_EQ(flushed[0].second.size(), 2u);
  EXPECT_EQ(flushed[0].second.line(0), "a");  // sorted by time
  EXPECT_EQ(flushed[0].second.line(1), "b");

  stream.finalize();
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[1].second.line(0), "c");
  EXPECT_EQ(stream.days_flushed(), 2u);
}

TEST(DayLogStream, RejectsAppendsToFlushedDays) {
  ls::DayLogStream stream([](ct::TimePoint, ls::DayBuffer&&) {});
  const auto d0 = ct::make_date(2022, 5, 5);
  stream.append(d0 + 10, "x");
  stream.flush_through(d0 + ct::kDay);
  EXPECT_THROW(stream.append(d0 + 20, "y"), std::logic_error);
  EXPECT_NO_THROW(stream.append(d0 + ct::kDay + 1, "z"));
}

TEST(DayLogStream, SkipsEmptyDays) {
  int flushes = 0;
  ls::DayLogStream stream(
      [&](ct::TimePoint, ls::DayBuffer&&) { ++flushes; });
  const auto d0 = ct::make_date(2022, 5, 5);
  stream.append(d0 + 10, "x");
  stream.append(d0 + 10 * ct::kDay, "y");  // 9-day gap
  stream.finalize();
  EXPECT_EQ(flushes, 2);  // no empty-day callbacks
}

TEST(DayLogStream, NullConsumerRejected) {
  EXPECT_THROW(ls::DayLogStream(nullptr), std::invalid_argument);
}

TEST(DayLogStream, StableSortKeepsEqualTimesInOrder) {
  std::vector<std::string> texts;
  ls::DayLogStream stream([&](ct::TimePoint, ls::DayBuffer&& buf) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      texts.emplace_back(buf.line(i));
    }
  });
  const auto d0 = ct::make_date(2022, 5, 5);
  stream.append(d0 + 100, "first");
  stream.append(d0 + 100, "second");
  stream.append(d0 + 100, "third");
  stream.finalize();
  EXPECT_EQ(texts, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(DayLogStream, SplicedLinesFollowSimulatedLinesOnTimeTies) {
  // Noise is rendered into its own buffer and spliced after the day's
  // simulated lines: a noise line in the same second as an XID line sorts
  // after it, exactly as if it had been appended after it.
  std::vector<std::string> texts;
  ls::DayLogStream stream([&](ct::TimePoint, ls::DayBuffer&& buf) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      texts.emplace_back(buf.line(i));
    }
  });
  const auto d0 = ct::make_date(2022, 5, 5);
  stream.append(d0 + 500, "xid");
  ls::DayBuffer noise;
  noise.append(d0 + 500, "noise-tie");
  noise.append(d0 + 100, "noise-early");
  stream.splice(d0, noise);
  EXPECT_EQ(stream.lines_appended(), 3u);
  stream.splice(d0 + ct::kDay, ls::DayBuffer{});  // opens no day
  stream.flush_through(d0 + ct::kDay);
  EXPECT_EQ(texts, (std::vector<std::string>{"noise-early", "xid",
                                             "noise-tie"}));
  EXPECT_EQ(stream.days_flushed(), 1u);
  stream.finalize();
  EXPECT_EQ(stream.days_flushed(), 1u);  // the empty splice left no day
  EXPECT_THROW(stream.splice(d0, noise), std::logic_error);
}

TEST(DayLogStream, AppendWithRendersInPlace) {
  std::string day_text;
  ls::DayLogStream stream([&](ct::TimePoint, ls::DayBuffer&& buf) {
    day_text = ls::render_day(buf);
  });
  const auto d0 = ct::make_date(2022, 5, 5);
  stream.append_with(d0 + 1, [](std::string& out) { out += "in-place"; });
  stream.append(d0 + 2, "copied");
  stream.finalize();
  EXPECT_EQ(day_text, "in-place\ncopied\n");
  EXPECT_EQ(stream.lines_appended(), 2u);
}

TEST(RenderDay, JoinsWithNewlines) {
  std::vector<ls::RawLine> lines = {{1, "a"}, {2, "b"}};
  EXPECT_EQ(ls::render_day(lines), "a\nb\n");
  EXPECT_EQ(ls::render_day(std::vector<ls::RawLine>{}), "");
}
