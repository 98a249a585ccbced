// Serve checkpoint format: round-trip fidelity, corruption rejection, and
// store rotation/fallback.  The invariant under attack: parse_manifest and
// parse_segment accept exactly the bytes their serializers wrote — any
// flipped bit, truncation, or version bump yields a structured error (never
// a crash) — and CheckpointStore::load_latest degrades to the previous
// generation, or to a fresh start when a segment every generation shares is
// damaged.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "chaos/checkpoint_chaos.h"
#include "common/hash.h"
#include "common/io.h"
#include "index/format.h"
#include "serve/checkpoint.h"
#include "slurm/job.h"

namespace ch = gpures::chaos;
namespace ct = gpures::common;
namespace sv = gpures::serve;
namespace an = gpures::analysis;
namespace sl = gpures::slurm;
namespace fs = std::filesystem;

namespace {

const ct::TimePoint kDay0 = ct::make_date(2023, 6, 1);

fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() /
                   ("gpures_serve_ckpt_" + name + "_" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

/// A manifest exercising every section: multiple sources in mixed states, a
/// mid-tail accounting cursor, strays, open coalescer groups, and a segment
/// list for generation 3.
sv::CheckpointManifest representative_manifest() {
  sv::CheckpointManifest d;
  d.config_hash = 0x1122334455667788ull;
  d.seq = 3;
  d.tick = 123;
  d.watermark = kDay0 + 2 * ct::kDay;

  sv::SourceSnapshot s0;
  s0.name = "syslog-2023-06-01.log";
  s0.date = kDay0;
  s0.offset = 4096;
  s0.lines_seen = 37;
  s0.existed = true;
  s0.sealed = true;
  s0.counts.kept_lines = 35;
  s0.counts.kept_bytes = 3900;
  s0.counts.binary_lines = 2;
  s0.counts.binary_bytes = 99;
  s0.counts.crlf_bytes = 1;
  d.sources.push_back(s0);

  sv::SourceSnapshot s1;
  s1.name = "syslog-2023-06-02.log";
  s1.date = kDay0 + ct::kDay;
  s1.offset = 128;
  s1.lines_seen = 3;
  s1.existed = true;
  s1.degraded = true;
  s1.recovered = true;
  s1.degrade_reason = "io: read failed: Input/output error";
  s1.last_progress_tick = 99;
  s1.last_event = kDay0 + ct::kDay + 3600;
  d.sources.push_back(s1);

  d.accounting.seen = true;
  d.accounting.offset = 777;
  d.accounting.line_no = 12;
  d.accounting.rows_kept = 10;
  d.accounting.rows_rejected = 1;
  d.accounting.bytes_rejected = 42;

  d.stray_files = {"README.txt", "syslog-2023-06-01.log.bak"};

  an::CoalescedError open_err;
  open_err.time = kDay0 + 100;
  open_err.last = kDay0 + 130;
  open_err.gpu = {1, 3};
  open_err.code = gpures::xid::Code::kGspRpcTimeout;
  open_err.raw_xid = 119;
  open_err.raw_lines = 4;
  d.coalescer.open.push_back(open_err);
  d.coalescer.records_in = 55;
  d.coalescer.errors_out = 11;
  d.coalescer.out_of_order = 1;

  d.emitted = {11, 4, 9, 2};
  d.segments = {{1, 500, 0xaaaa}, {2, 40, 0xbbbb}, {3, 1234, 0xcccc}};
  return d;
}

/// Emitted rows exercising every segment section: errors, lifecycle
/// records, and a job table with one inline and one spilled GPU list.
/// `salt` varies the values so successive generations differ.
sv::EmittedRows representative_rows(int salt = 0) {
  sv::EmittedRows r;
  an::CoalescedError done;
  done.time = kDay0 + 100 + salt;
  done.last = done.time + 30;
  done.gpu = {0, salt % 4};
  done.code = gpures::xid::Code::kGspRpcTimeout;
  done.raw_xid = 79;
  done.raw_lines = 4;
  r.errors.push_back(done);

  an::LifecycleRecord lr;
  lr.time = kDay0 + 9000 + salt;
  lr.host = "gpua002";
  lr.kind = an::LifecycleRecord::Kind::kDrain;
  r.lifecycle.push_back(lr);

  sl::JobRecord rec;
  rec.id = static_cast<sl::JobId>(4242 + salt);
  rec.name = "train-llm";
  rec.submit = kDay0;
  rec.start = kDay0 + 60;
  rec.end = kDay0 + 7260;
  rec.gpus = 8;
  rec.nodes = 2;
  rec.node_list = {0, 1};
  rec.gpu_list = {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 1}, {1, 2},
                  {1, 3}};
  r.jobs.add(rec);
  rec.id += 1000;
  rec.gpus = 1;
  rec.nodes = 1;
  rec.node_list = {1};
  rec.gpu_list = {{1, 2}};
  r.jobs.add(rec);
  return r;
}

sv::SegmentRows all_of(const sv::EmittedRows& r) {
  return sv::SegmentRows::since(r, {});
}

std::string manifest_bytes() {
  return sv::serialize_manifest(representative_manifest());
}

std::string segment_bytes() {
  return sv::serialize_segment(1, all_of(representative_rows()));
}

/// Both kinds of checkpoint file, for suites that must hold over each.
std::vector<std::pair<std::string, std::string>> both_kinds() {
  return {{"manifest", manifest_bytes()}, {"segment", segment_bytes()}};
}

/// The parse error for `bytes` of `kind`, or nullopt when they parse.
std::optional<std::string> parse_error(const std::string& kind,
                                       std::string_view bytes) {
  if (kind == "manifest") {
    auto m = sv::parse_manifest(bytes);
    if (m.ok()) return std::nullopt;
    return m.error().message;
  }
  sv::EmittedRows out;
  const auto st = sv::parse_segment(bytes, 1, out);
  if (st.ok()) return std::nullopt;
  return st.error().message;
}

/// Appends generation `seq` the way ServeSession::checkpoint_now does: the
/// rows emitted since the previous generation go to a new segment, then a
/// manifest lists every segment so far.
class Writer {
 public:
  explicit Writer(const fs::path& dir) : store_(dir) {}

  void emit(int salt) {
    const auto more = representative_rows(salt);
    for (const auto& e : more.errors) all_.errors.push_back(e);
    for (const auto& l : more.lifecycle) all_.lifecycle.push_back(l);
    for (auto j : more.jobs.jobs) {
      if (j.spill_index >= 0) {
        j.spill_index = static_cast<std::int32_t>(all_.jobs.spill.size());
        all_.jobs.spill.push_back(more.jobs.spill[0]);
      }
      all_.jobs.jobs.push_back(j);
    }
  }

  /// Write generation seq_ + 1 (segment, then manifest unless `orphan`).
  void checkpoint(bool orphan = false) {
    const std::uint64_t seq = manifest_.seq + 1;
    auto ref = store_.write_segment(
        seq, sv::SegmentRows::since(all_, manifest_.emitted));
    ASSERT_TRUE(ref.ok()) << ref.error().message;
    if (orphan) return;
    sv::CheckpointManifest m = manifest_;
    m.config_hash = 42;
    m.seq = seq;
    m.tick = seq * 10;
    m.emitted = all_.counts();
    m.segments.push_back(ref.value());
    auto written = store_.write_manifest(m);
    ASSERT_TRUE(written.ok()) << written.error().message;
    manifest_ = std::move(m);
  }

  const sv::CheckpointStore& store() const { return store_; }
  const sv::EmittedRows& all() const { return all_; }

 private:
  sv::CheckpointStore store_;
  sv::CheckpointManifest manifest_;
  sv::EmittedRows all_;
};

/// Write generations 1..n, each adding one batch of rows.
void write_generations(Writer& w, int n) {
  for (int g = 1; g <= n; ++g) {
    w.emit(g);
    w.checkpoint();
  }
}

void expect_same_rows(const sv::EmittedRows& got, const sv::EmittedRows& want) {
  ASSERT_EQ(got.counts(), want.counts());
  for (std::size_t i = 0; i < want.errors.size(); ++i) {
    EXPECT_EQ(got.errors[i].time, want.errors[i].time) << i;
    EXPECT_EQ(got.errors[i].gpu, want.errors[i].gpu) << i;
    EXPECT_EQ(got.errors[i].raw_xid, want.errors[i].raw_xid) << i;
  }
  for (std::size_t i = 0; i < want.lifecycle.size(); ++i) {
    EXPECT_EQ(got.lifecycle[i].host, want.lifecycle[i].host) << i;
    EXPECT_EQ(got.lifecycle[i].kind, want.lifecycle[i].kind) << i;
    EXPECT_EQ(got.lifecycle[i].time, want.lifecycle[i].time) << i;
  }
  for (std::size_t i = 0; i < want.jobs.jobs.size(); ++i) {
    EXPECT_EQ(got.jobs.jobs[i].id, want.jobs.jobs[i].id) << i;
    EXPECT_EQ(got.jobs.jobs[i].spill_index, want.jobs.jobs[i].spill_index)
        << i;
    EXPECT_EQ(got.jobs.jobs[i].inline_count, want.jobs.jobs[i].inline_count)
        << i;
  }
  EXPECT_EQ(got.jobs.spill, want.jobs.spill);
}

}  // namespace

TEST(ServeCheckpoint, RoundTripPreservesEveryField) {
  const sv::CheckpointManifest d = representative_manifest();
  const std::string bytes = serialize_manifest(d);
  ASSERT_GE(bytes.size(), sv::kCheckpointHeaderSize);

  auto parsed = sv::parse_manifest(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const sv::CheckpointManifest& r = parsed.value();

  EXPECT_EQ(r.config_hash, d.config_hash);
  EXPECT_EQ(r.seq, d.seq);
  EXPECT_EQ(r.tick, d.tick);
  EXPECT_EQ(r.watermark, d.watermark);
  ASSERT_EQ(r.sources.size(), d.sources.size());
  for (std::size_t i = 0; i < d.sources.size(); ++i) {
    EXPECT_EQ(r.sources[i].name, d.sources[i].name) << i;
    EXPECT_EQ(r.sources[i].date, d.sources[i].date) << i;
    EXPECT_EQ(r.sources[i].offset, d.sources[i].offset) << i;
    EXPECT_EQ(r.sources[i].lines_seen, d.sources[i].lines_seen) << i;
    EXPECT_EQ(r.sources[i].existed, d.sources[i].existed) << i;
    EXPECT_EQ(r.sources[i].sealed, d.sources[i].sealed) << i;
    EXPECT_EQ(r.sources[i].degraded, d.sources[i].degraded) << i;
    EXPECT_EQ(r.sources[i].recovered, d.sources[i].recovered) << i;
    EXPECT_EQ(r.sources[i].degrade_reason, d.sources[i].degrade_reason) << i;
    EXPECT_EQ(r.sources[i].last_progress_tick, d.sources[i].last_progress_tick)
        << i;
    EXPECT_EQ(r.sources[i].last_event, d.sources[i].last_event) << i;
    EXPECT_EQ(r.sources[i].counts.binary_lines, d.sources[i].counts.binary_lines)
        << i;
    EXPECT_EQ(r.sources[i].counts.kept_bytes, d.sources[i].counts.kept_bytes)
        << i;
    EXPECT_EQ(r.sources[i].counts.crlf_bytes, d.sources[i].counts.crlf_bytes)
        << i;
  }
  EXPECT_EQ(r.accounting.seen, d.accounting.seen);
  EXPECT_EQ(r.accounting.offset, d.accounting.offset);
  EXPECT_EQ(r.accounting.line_no, d.accounting.line_no);
  EXPECT_EQ(r.accounting.rows_kept, d.accounting.rows_kept);
  EXPECT_EQ(r.accounting.rows_rejected, d.accounting.rows_rejected);
  EXPECT_EQ(r.accounting.bytes_rejected, d.accounting.bytes_rejected);
  EXPECT_EQ(r.stray_files, d.stray_files);
  ASSERT_EQ(r.coalescer.open.size(), 1u);
  EXPECT_EQ(r.coalescer.open[0].gpu, d.coalescer.open[0].gpu);
  EXPECT_EQ(r.coalescer.open[0].raw_lines, d.coalescer.open[0].raw_lines);
  EXPECT_EQ(r.coalescer.records_in, d.coalescer.records_in);
  EXPECT_EQ(r.coalescer.errors_out, d.coalescer.errors_out);
  EXPECT_EQ(r.coalescer.out_of_order, d.coalescer.out_of_order);
  EXPECT_EQ(r.emitted, d.emitted);
  ASSERT_EQ(r.segments.size(), d.segments.size());
  for (std::size_t i = 0; i < d.segments.size(); ++i) {
    EXPECT_EQ(r.segments[i].seq, d.segments[i].seq) << i;
    EXPECT_EQ(r.segments[i].bytes, d.segments[i].bytes) << i;
    EXPECT_EQ(r.segments[i].hash, d.segments[i].hash) << i;
  }
  // Serializing the parsed copy reproduces the original bytes exactly —
  // nothing is lost or reordered in either direction.
  EXPECT_EQ(serialize_manifest(r), bytes);

  // The same holds for a segment's rows.
  const sv::EmittedRows rows = representative_rows();
  const std::string seg = sv::serialize_segment(1, all_of(rows));
  sv::EmittedRows back;
  const auto st = sv::parse_segment(seg, 1, back);
  ASSERT_TRUE(st.ok()) << st.error().message;
  expect_same_rows(back, rows);
  EXPECT_EQ(sv::serialize_segment(1, all_of(back)), seg);
}

TEST(ServeCheckpoint, EmptyCheckpointRoundTrips) {
  sv::CheckpointManifest d;
  d.config_hash = 1;
  const std::string bytes = serialize_manifest(d);
  auto parsed = sv::parse_manifest(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().sources.size(), 0u);
  EXPECT_EQ(serialize_manifest(parsed.value()), bytes);

  const std::string seg = sv::serialize_segment(1, sv::SegmentRows{});
  sv::EmittedRows back;
  ASSERT_TRUE(sv::parse_segment(seg, 1, back).ok());
  EXPECT_EQ(back.counts(), sv::EmittedCounts{});
}

TEST(ServeCheckpoint, ManifestRejectsABrokenSegmentList) {
  sv::CheckpointManifest d = representative_manifest();
  d.segments[1].seq = 7;
  auto parsed = sv::parse_manifest(sv::serialize_manifest(d));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("segment list"), std::string::npos)
      << parsed.error().message;

  d = representative_manifest();
  d.segments.pop_back();
  EXPECT_FALSE(sv::parse_manifest(sv::serialize_manifest(d)).ok());
}

TEST(ServeCheckpoint, SegmentRejectsTheWrongSequenceNumber) {
  const std::string seg = segment_bytes();
  sv::EmittedRows out;
  const auto st = sv::parse_segment(seg, 2, out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("expected 2"), std::string::npos)
      << st.error().message;
  // A manifest is not a segment, nor the other way round.
  EXPECT_FALSE(sv::parse_segment(manifest_bytes(), 1, out).ok());
  EXPECT_FALSE(sv::parse_manifest(seg).ok());
}

TEST(ServeCheckpoint, BitFlipAnywhereIsAlwaysDetected) {
  for (const auto& [kind, clean] : both_kinds()) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      std::string bytes = clean;
      auto c = ch::corrupt_checkpoint_bytes(bytes, seed,
                                            ch::CheckpointFault::kAnyBitFlip);
      ASSERT_TRUE(c.ok()) << c.error().message;
      ASSERT_NE(bytes, clean) << c.value().detail;
      EXPECT_TRUE(parse_error(kind, bytes).has_value())
          << kind << " seed " << seed << ": " << c.value().detail;
    }
  }
}

TEST(ServeCheckpoint, HeaderAndPayloadFlipsNameTheDefect) {
  for (const auto& [kind, clean] : both_kinds()) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      std::string h = clean;
      auto ch1 = ch::corrupt_checkpoint_bytes(
          h, seed, ch::CheckpointFault::kHeaderBitFlip);
      ASSERT_TRUE(ch1.ok());
      const auto eh = parse_error(kind, h);
      ASSERT_TRUE(eh.has_value()) << kind << ": " << ch1.value().detail;
      EXPECT_FALSE(eh->empty());

      std::string p = clean;
      auto ch2 = ch::corrupt_checkpoint_bytes(
          p, seed, ch::CheckpointFault::kPayloadBitFlip);
      ASSERT_TRUE(ch2.ok());
      EXPECT_TRUE(parse_error(kind, p).has_value())
          << kind << ": " << ch2.value().detail;
    }
  }
}

TEST(ServeCheckpoint, EveryTruncationLengthRejectedGracefully) {
  // Walk every prefix length; each must fail parse without crashing (the
  // interesting ones are inside the header and one byte short of the end).
  for (const auto& [kind, clean] : both_kinds()) {
    for (std::size_t len = 0; len < clean.size(); ++len) {
      EXPECT_TRUE(
          parse_error(kind, std::string_view(clean).substr(0, len)).has_value())
          << kind << " prefix length " << len;
    }
  }
}

TEST(ServeCheckpoint, FutureVersionIsRejectedByVersionCheck) {
  std::string bytes = manifest_bytes();
  auto c = ch::corrupt_checkpoint_bytes(bytes, 1,
                                        ch::CheckpointFault::kVersionBump);
  ASSERT_TRUE(c.ok()) << c.error().message;
  auto parsed = sv::parse_manifest(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("version"), std::string::npos)
      << parsed.error().message;

  std::string seg = segment_bytes();
  ASSERT_TRUE(ch::corrupt_checkpoint_bytes(seg, 1,
                                           ch::CheckpointFault::kVersionBump)
                  .ok());
  sv::EmittedRows out;
  const auto st = sv::parse_segment(seg, 1, out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("version"), std::string::npos)
      << st.error().message;
}

TEST(ServeCheckpointStore, RotationKeepsNewestTwoGenerations) {
  const auto dir = temp_dir("rotate");
  Writer w(dir);
  write_generations(w, 5);
  const auto& store = w.store();
  EXPECT_FALSE(fs::exists(store.manifest_path(1)));
  EXPECT_FALSE(fs::exists(store.manifest_path(2)));
  EXPECT_FALSE(fs::exists(store.manifest_path(3)));
  EXPECT_TRUE(fs::exists(store.manifest_path(4)));
  EXPECT_TRUE(fs::exists(store.manifest_path(5)));
  // Every segment the kept manifests list stays.
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_TRUE(fs::exists(store.segment_path(seq))) << seq;
  }

  auto latest = store.load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->manifest.seq, 5u);
  expect_same_rows(latest.value()->rows, w.all());
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, SegmentsHoldOnlyWhatChanged) {
  const auto dir = temp_dir("append_only");
  Writer w(dir);
  write_generations(w, 6);
  // Every generation adds the same rows, so every segment has the same size
  // however much came before it.
  const auto first = fs::file_size(w.store().segment_path(1));
  for (std::uint64_t seq = 2; seq <= 6; ++seq) {
    EXPECT_EQ(fs::file_size(w.store().segment_path(seq)), first) << seq;
  }
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, CorruptNewestFallsBackToPreviousGeneration) {
  const auto dir = temp_dir("fallback");
  Writer w(dir);
  write_generations(w, 2);
  auto c = ch::corrupt_checkpoint_store(
      dir, ch::CheckpointTarget::kNewestManifest, 77,
      ch::CheckpointFault::kPayloadBitFlip);
  ASSERT_TRUE(c.ok()) << c.error().message;
  EXPECT_EQ(c.value().file, w.store().manifest_path(2));

  std::vector<std::string> notes;
  auto latest = w.store().load_latest([&](const std::string& n) {
    notes.push_back(n);
  });
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->manifest.seq, 1u);
  EXPECT_EQ(latest.value()->manifest.tick, 10u);
  EXPECT_EQ(latest.value()->rows.errors.size(), 1u);
  ASSERT_FALSE(notes.empty());
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, CorruptNewestSegmentFallsBackOneGeneration) {
  for (const auto fault : {ch::CheckpointFault::kAnyBitFlip,
                           ch::CheckpointFault::kTruncate}) {
    const auto dir = temp_dir("seg_fallback");
    Writer w(dir);
    write_generations(w, 3);
    auto c = ch::corrupt_checkpoint_store(
        dir, ch::CheckpointTarget::kNewestSegment, 5, fault);
    ASSERT_TRUE(c.ok()) << c.error().message;
    EXPECT_EQ(c.value().file, w.store().segment_path(3));

    std::vector<std::string> notes;
    auto latest = w.store().load_latest([&](const std::string& n) {
      notes.push_back(n);
    });
    ASSERT_TRUE(latest.ok()) << latest.error().message;
    ASSERT_TRUE(latest.value().has_value()) << ch::to_string(fault);
    EXPECT_EQ(latest.value()->manifest.seq, 2u);
    EXPECT_EQ(latest.value()->rows.errors.size(), 2u);
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_NE(notes[0].find("seg-00000003.bin"), std::string::npos)
        << notes[0];
    fs::remove_all(dir);
  }
}

TEST(ServeCheckpointStore, CorruptSharedSegmentStartsFresh) {
  const auto dir = temp_dir("seg_shared");
  Writer w(dir);
  write_generations(w, 4);
  auto c = ch::corrupt_checkpoint_store(
      dir, ch::CheckpointTarget::kOldestSegment, 9,
      ch::CheckpointFault::kPayloadBitFlip);
  ASSERT_TRUE(c.ok()) << c.error().message;
  EXPECT_EQ(c.value().file, w.store().segment_path(1));

  std::vector<std::string> notes;
  auto latest = w.store().load_latest([&](const std::string& n) {
    notes.push_back(n);
  });
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_FALSE(latest.value().has_value());
  // Both generations are reported, then the fresh start.
  ASSERT_EQ(notes.size(), 3u);
  EXPECT_NE(notes[2].find("starting fresh"), std::string::npos) << notes[2];
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, OrphanSegmentIsIgnoredThenOverwritten) {
  const auto dir = temp_dir("orphan");
  Writer w(dir);
  write_generations(w, 2);
  // A crash between the segment write and the manifest write.
  w.emit(3);
  w.checkpoint(/*orphan=*/true);
  const auto& store = w.store();
  ASSERT_TRUE(fs::exists(store.segment_path(3)));
  ASSERT_FALSE(fs::exists(store.manifest_path(3)));

  auto latest = store.load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->manifest.seq, 2u);

  // The next checkpoint rewrites segment 3 with everything emitted since
  // generation 2, and the new generation loads whole.
  w.emit(4);
  w.checkpoint();
  latest = store.load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->manifest.seq, 3u);
  expect_same_rows(latest.value()->rows, w.all());
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, VersionOneDirectoryStartsFresh) {
  const auto dir = temp_dir("v1");
  Writer w(dir);
  write_generations(w, 2);
  // Relabel both manifests as version 1 with a consistent header: only the
  // version check can refuse them.
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    const auto path = w.store().manifest_path(seq);
    auto text = ct::read_file(path.string());
    ASSERT_TRUE(text.ok());
    std::string bytes = std::move(text).take();
    auto* h = reinterpret_cast<unsigned char*>(bytes.data());
    gpures::index::store_le32(h + 8, 1);
    gpures::index::store_le64(h + 32, ct::xxhash64(bytes.data(), 32));
    ASSERT_TRUE(ct::write_text_file(path.string(), bytes).ok());
  }
  std::vector<std::string> notes;
  auto latest = w.store().load_latest([&](const std::string& n) {
    notes.push_back(n);
  });
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_FALSE(latest.value().has_value());
  ASSERT_FALSE(notes.empty());
  EXPECT_NE(notes[0].find("unsupported version 1"), std::string::npos)
      << notes[0];
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, AllGenerationsCorruptMeansFreshStart) {
  const auto dir = temp_dir("all_corrupt");
  Writer w(dir);
  write_generations(w, 2);
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    auto c = ch::corrupt_checkpoint_file(w.store().manifest_path(seq),
                                         w.store().manifest_path(seq), seq,
                                         ch::CheckpointFault::kTruncate);
    ASSERT_TRUE(c.ok()) << c.error().message;
  }
  auto latest = w.store().load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_FALSE(latest.value().has_value());
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, EmptyDirectoryIsFreshStart) {
  const auto dir = temp_dir("empty");
  fs::create_directories(dir);
  sv::CheckpointStore store(dir);
  auto latest = store.load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_FALSE(latest.value().has_value());
  fs::remove_all(dir);
}
