#include "serve/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "common/io.h"
#include "index/format.h"
#include "xid/xid.h"

namespace gpures::serve {

namespace {

using index::load_le16;
using index::load_le32;
using index::load_le64;
using index::store_le16;
using index::store_le32;
using index::store_le64;

void append_le16(std::string& s, std::uint16_t v) {
  unsigned char b[2];
  store_le16(b, v);
  s.append(reinterpret_cast<const char*>(b), 2);
}
void append_le32(std::string& s, std::uint32_t v) {
  unsigned char b[4];
  store_le32(b, v);
  s.append(reinterpret_cast<const char*>(b), 4);
}
void append_le64(std::string& s, std::uint64_t v) {
  unsigned char b[8];
  store_le64(b, v);
  s.append(reinterpret_cast<const char*>(b), 8);
}
void append_i64(std::string& s, std::int64_t v) {
  append_le64(s, static_cast<std::uint64_t>(v));
}
void append_i32(std::string& s, std::int32_t v) {
  append_le32(s, static_cast<std::uint32_t>(v));
}
void append_u8(std::string& s, std::uint8_t v) {
  s.push_back(static_cast<char>(v));
}
void append_str(std::string& s, std::string_view v) {
  append_le32(s, static_cast<std::uint32_t>(v.size()));
  s.append(v);
}

void append_error(std::string& s, const analysis::CoalescedError& e) {
  append_i64(s, e.time);
  append_i64(s, e.last);
  append_i32(s, e.gpu.node);
  append_i32(s, e.gpu.slot);
  append_le16(s, xid::to_number(e.code));
  append_le16(s, e.raw_xid);
  append_le32(s, e.raw_lines);
}

/// first_category is one of three static strings (or null); a small enum
/// survives serialization where the pointer cannot.
std::uint8_t category_code(const char* category) {
  if (category == nullptr) return 0;
  if (std::strcmp(category, "torn") == 0) return 1;
  if (std::strcmp(category, "overlong") == 0) return 2;
  return 3;  // "binary"
}
const char* category_from_code(std::uint8_t code) {
  switch (code) {
    case 1:
      return "torn";
    case 2:
      return "overlong";
    case 3:
      return "binary";
    default:
      return nullptr;
  }
}

/// Bounds-checked little-endian reader over the payload.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool failed() const { return failed_; }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    return load_le64(at(pos_ - 8));
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    return load_le32(at(pos_ - 4));
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    return load_le16(at(pos_ - 2));
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_ - 1]);
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    return std::string(data_.substr(pos_ - len, len));
  }
  analysis::CoalescedError error() {
    analysis::CoalescedError e;
    e.time = i64();
    e.last = i64();
    e.gpu.node = i32();
    e.gpu.slot = i32();
    e.code = static_cast<xid::Code>(u16());
    e.raw_xid = u16();
    e.raw_lines = u32();
    return e;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  bool take(std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    pos_ += n;
    return true;
  }
  const unsigned char* at(std::size_t p) const {
    return reinterpret_cast<const unsigned char*>(data_.data()) + p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};


/// Wrap `payload` in the 40-byte header: magic, version, endian tag,
/// payload size, payload XXH64, header XXH64.
std::string frame(const char (&magic)[8], std::string_view payload) {
  std::string out;
  out.reserve(kCheckpointHeaderSize + payload.size());
  out.append(magic, sizeof(magic));
  append_le32(out, kCheckpointVersion);
  append_le32(out, kCheckpointEndianTag);
  append_le64(out, payload.size());
  append_le64(out, common::xxhash64(payload));
  append_le64(out, common::xxhash64(std::string_view(out)));
  out += payload;
  return out;
}

/// Verify the header and payload checksum of a framed file of kind `what`;
/// returns the payload.
common::Result<std::string_view> unframe(std::string_view bytes,
                                         const char (&magic)[8],
                                         const std::string& what) {
  if (bytes.size() < kCheckpointHeaderSize) {
    return common::Error::make(what + ": file shorter than header (" +
                               std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0) {
    return common::Error::make(what + ": bad magic");
  }
  const auto* h = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::uint32_t version = load_le32(h + 8);
  if (version != kCheckpointVersion) {
    return common::Error::make(what + ": unsupported version " +
                               std::to_string(version));
  }
  if (load_le32(h + 12) != kCheckpointEndianTag) {
    return common::Error::make(what + ": endian tag mismatch");
  }
  const std::uint64_t payload_size = load_le64(h + 16);
  const std::uint64_t payload_hash = load_le64(h + 24);
  const std::uint64_t header_hash = load_le64(h + 32);
  if (common::xxhash64(bytes.substr(0, 32)) != header_hash) {
    return common::Error::make(what + ": header checksum mismatch");
  }
  if (bytes.size() - kCheckpointHeaderSize != payload_size) {
    return common::Error::make(
        what + ": payload size mismatch (header says " +
        std::to_string(payload_size) + ", file carries " +
        std::to_string(bytes.size() - kCheckpointHeaderSize) + ")");
  }
  const std::string_view payload = bytes.substr(kCheckpointHeaderSize);
  if (common::xxhash64(payload) != payload_hash) {
    return common::Error::make(what + ": payload checksum mismatch");
  }
  return payload;
}

/// dir/<prefix><seq, 8 digits>.bin
std::filesystem::path numbered_path(const std::filesystem::path& dir,
                                    const char* prefix, std::uint64_t seq) {
  char name[40];
  std::snprintf(name, sizeof(name), "%s%08llu.bin", prefix,
                static_cast<unsigned long long>(seq));
  return dir / name;
}

/// The number in `name` when it looks like <prefix><digits>.bin.
std::optional<std::uint64_t> numbered(std::string_view name,
                                      std::string_view prefix) {
  if (name.size() < prefix.size() + 5 || !name.starts_with(prefix) ||
      !name.ends_with(".bin")) {
    return std::nullopt;
  }
  const auto digits =
      name.substr(prefix.size(), name.size() - prefix.size() - 4);
  std::uint64_t seq = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return seq;
}

}  // namespace

SegmentRows SegmentRows::since(const EmittedRows& all,
                               const EmittedCounts& from) {
  SegmentRows rows;
  rows.errors = std::span(all.errors).subspan(from.errors);
  rows.lifecycle = std::span(all.lifecycle).subspan(from.lifecycle);
  rows.jobs = std::span(all.jobs.jobs).subspan(from.jobs);
  rows.spill = std::span(all.jobs.spill).subspan(from.spill);
  return rows;
}

std::string serialize_manifest(const CheckpointManifest& m) {
  std::string p;
  append_le64(p, m.config_hash);
  append_le64(p, m.seq);
  append_le64(p, m.tick);
  append_i64(p, m.watermark);

  append_le32(p, static_cast<std::uint32_t>(m.sources.size()));
  for (const auto& src : m.sources) {
    append_str(p, src.name);
    append_i64(p, src.date);
    append_le64(p, src.offset);
    append_le64(p, src.lines_seen);
    std::uint8_t flags = 0;
    if (src.existed) flags |= 1;
    if (src.sealed) flags |= 2;
    if (src.degraded) flags |= 4;
    if (src.recovered) flags |= 8;
    append_u8(p, flags);
    append_str(p, src.degrade_reason);
    append_le64(p, src.last_progress_tick);
    append_i64(p, src.last_event);
    const auto& c = src.counts;
    append_le64(p, c.kept_lines);
    append_le64(p, c.kept_bytes);
    append_le64(p, c.binary_lines);
    append_le64(p, c.binary_bytes);
    append_le64(p, c.overlong_lines);
    append_le64(p, c.overlong_bytes);
    append_le64(p, c.torn_lines);
    append_le64(p, c.torn_bytes);
    append_le64(p, c.crlf_bytes);
    append_le64(p, c.first_line);
    append_le64(p, c.first_offset);
    append_u8(p, category_code(c.first_category));
  }

  {
    const auto& a = m.accounting;
    std::uint8_t flags = 0;
    if (a.seen) flags |= 1;
    if (a.degraded) flags |= 2;
    append_u8(p, flags);
    append_str(p, a.degrade_reason);
    append_le64(p, a.offset);
    append_le64(p, a.line_no);
    append_le64(p, a.rows_kept);
    append_le64(p, a.rows_rejected);
    append_le64(p, a.bytes_rejected);
  }

  append_le32(p, static_cast<std::uint32_t>(m.stray_files.size()));
  for (const auto& f : m.stray_files) append_str(p, f);

  append_le64(p, m.coalescer.records_in);
  append_le64(p, m.coalescer.errors_out);
  append_le64(p, m.coalescer.out_of_order);
  append_le32(p, static_cast<std::uint32_t>(m.coalescer.open.size()));
  for (const auto& e : m.coalescer.open) append_error(p, e);

  append_le64(p, m.emitted.errors);
  append_le64(p, m.emitted.lifecycle);
  append_le64(p, m.emitted.jobs);
  append_le64(p, m.emitted.spill);
  append_le64(p, m.segments.size());
  for (const auto& s : m.segments) {
    append_le64(p, s.seq);
    append_le64(p, s.bytes);
    append_le64(p, s.hash);
  }
  return frame(kCheckpointMagic, p);
}

common::Result<CheckpointManifest> parse_manifest(std::string_view bytes) {
  auto payload = unframe(bytes, kCheckpointMagic, "checkpoint");
  if (!payload.ok()) return payload.error();

  Cursor c(payload.value());
  CheckpointManifest m;
  m.config_hash = c.u64();
  m.seq = c.u64();
  m.tick = c.u64();
  m.watermark = c.i64();

  const std::uint32_t nsources = c.u32();
  for (std::uint32_t i = 0; i < nsources && !c.failed(); ++i) {
    SourceSnapshot src;
    src.name = c.str();
    src.date = c.i64();
    src.offset = c.u64();
    src.lines_seen = c.u64();
    const std::uint8_t flags = c.u8();
    src.existed = (flags & 1) != 0;
    src.sealed = (flags & 2) != 0;
    src.degraded = (flags & 4) != 0;
    src.recovered = (flags & 8) != 0;
    src.degrade_reason = c.str();
    src.last_progress_tick = c.u64();
    src.last_event = c.i64();
    auto& sc = src.counts;
    sc.kept_lines = c.u64();
    sc.kept_bytes = c.u64();
    sc.binary_lines = c.u64();
    sc.binary_bytes = c.u64();
    sc.overlong_lines = c.u64();
    sc.overlong_bytes = c.u64();
    sc.torn_lines = c.u64();
    sc.torn_bytes = c.u64();
    sc.crlf_bytes = c.u64();
    sc.first_line = c.u64();
    sc.first_offset = c.u64();
    sc.first_category = category_from_code(c.u8());
    m.sources.push_back(std::move(src));
  }

  {
    auto& a = m.accounting;
    const std::uint8_t flags = c.u8();
    a.seen = (flags & 1) != 0;
    a.degraded = (flags & 2) != 0;
    a.degrade_reason = c.str();
    a.offset = c.u64();
    a.line_no = c.u64();
    a.rows_kept = c.u64();
    a.rows_rejected = c.u64();
    a.bytes_rejected = c.u64();
  }

  const std::uint32_t nstray = c.u32();
  for (std::uint32_t i = 0; i < nstray && !c.failed(); ++i) {
    m.stray_files.push_back(c.str());
  }

  m.coalescer.records_in = c.u64();
  m.coalescer.errors_out = c.u64();
  m.coalescer.out_of_order = c.u64();
  const std::uint32_t nopen = c.u32();
  for (std::uint32_t i = 0; i < nopen && !c.failed(); ++i) {
    m.coalescer.open.push_back(c.error());
  }

  m.emitted.errors = c.u64();
  m.emitted.lifecycle = c.u64();
  m.emitted.jobs = c.u64();
  m.emitted.spill = c.u64();
  const std::uint64_t nseg = c.u64();
  for (std::uint64_t i = 0; i < nseg && !c.failed(); ++i) {
    SegmentRef s;
    s.seq = c.u64();
    s.bytes = c.u64();
    s.hash = c.u64();
    m.segments.push_back(s);
  }

  if (c.failed() || !c.done()) {
    return common::Error::make(
        "checkpoint: payload truncated or trailing garbage");
  }
  // Every checkpoint writes exactly one segment, numbered like itself.
  bool contiguous = m.segments.size() == m.seq;
  for (std::size_t i = 0; contiguous && i < m.segments.size(); ++i) {
    contiguous = m.segments[i].seq == i + 1;
  }
  if (!contiguous) {
    return common::Error::make("checkpoint: segment list is not seg-1 .. seg-" +
                               std::to_string(m.seq));
  }
  return m;
}

std::string serialize_segment(std::uint64_t seq, const SegmentRows& rows) {
  std::string p;
  append_le64(p, seq);
  append_le64(p, rows.errors.size());
  for (const auto& e : rows.errors) append_error(p, e);

  append_le64(p, rows.lifecycle.size());
  for (const auto& l : rows.lifecycle) {
    append_i64(p, l.time);
    append_u8(p, static_cast<std::uint8_t>(l.kind));
    append_str(p, l.host);
  }

  append_le64(p, rows.jobs.size());
  for (const auto& j : rows.jobs) {
    append_le64(p, j.id);
    append_i64(p, j.start);
    append_i64(p, j.end);
    append_i32(p, j.gpus);
    append_u8(p, static_cast<std::uint8_t>(j.state));
    append_u8(p, j.is_ml ? 1 : 0);
    append_u8(p, j.inline_count);
    for (const auto g : j.gpus_inline) append_i32(p, g);
    append_i32(p, j.spill_index);
  }
  append_le64(p, rows.spill.size());
  for (const auto& s : rows.spill) {
    append_le32(p, static_cast<std::uint32_t>(s.size()));
    for (const auto g : s) append_i32(p, g);
  }
  return frame(kSegmentMagic, p);
}

common::Status parse_segment(std::string_view bytes, std::uint64_t seq,
                             EmittedRows& out) {
  auto payload = unframe(bytes, kSegmentMagic, "checkpoint segment");
  if (!payload.ok()) return payload.error();

  Cursor c(payload.value());
  const std::uint64_t got_seq = c.u64();
  if (!c.failed() && got_seq != seq) {
    return common::Error::make("checkpoint segment: holds seq " +
                               std::to_string(got_seq) + ", expected " +
                               std::to_string(seq));
  }

  const std::uint64_t nerrors = c.u64();
  for (std::uint64_t i = 0; i < nerrors && !c.failed(); ++i) {
    out.errors.push_back(c.error());
  }

  const std::uint64_t nlife = c.u64();
  for (std::uint64_t i = 0; i < nlife && !c.failed(); ++i) {
    analysis::LifecycleRecord l;
    l.time = c.i64();
    l.kind = static_cast<analysis::LifecycleRecord::Kind>(c.u8());
    l.host = c.str();
    out.lifecycle.push_back(std::move(l));
  }

  const std::size_t first_job = out.jobs.jobs.size();
  const std::uint64_t njobs = c.u64();
  for (std::uint64_t i = 0; i < njobs && !c.failed(); ++i) {
    analysis::JobView j;
    j.id = c.u64();
    j.start = c.i64();
    j.end = c.i64();
    j.gpus = c.i32();
    j.state = static_cast<slurm::JobState>(c.u8());
    j.is_ml = c.u8() != 0;
    j.inline_count = c.u8();
    for (auto& g : j.gpus_inline) g = c.i32();
    j.spill_index = c.i32();
    out.jobs.jobs.push_back(j);
  }
  const std::uint64_t nspill = c.u64();
  for (std::uint64_t i = 0; i < nspill && !c.failed(); ++i) {
    const std::uint32_t n = c.u32();
    std::vector<analysis::PackedGpu> gpus;
    for (std::uint32_t g = 0; g < n && !c.failed(); ++g) {
      gpus.push_back(c.i32());
    }
    out.jobs.spill.push_back(std::move(gpus));
  }

  if (c.failed() || !c.done()) {
    return common::Error::make(
        "checkpoint segment: payload truncated or trailing garbage");
  }
  // A job may only point at GPU lists that exist once this segment is in.
  for (std::size_t i = first_job; i < out.jobs.jobs.size(); ++i) {
    const auto& j = out.jobs.jobs[i];
    if (j.inline_count > j.gpus_inline.size() ||
        j.spill_index >= static_cast<std::int64_t>(out.jobs.spill.size())) {
      return common::Error::make("checkpoint segment: job " +
                                 std::to_string(j.id) +
                                 " references a missing GPU list");
    }
  }
  return {};
}

CheckpointStore::CheckpointStore(std::filesystem::path dir)
    : dir_(std::move(dir)) {}

std::filesystem::path CheckpointStore::manifest_path(std::uint64_t seq) const {
  return numbered_path(dir_, "ckpt-", seq);
}

std::filesystem::path CheckpointStore::segment_path(std::uint64_t seq) const {
  return numbered_path(dir_, "seg-", seq);
}

common::Result<SegmentRef> CheckpointStore::write_segment(
    std::uint64_t seq, const SegmentRows& rows) const {
  const auto bytes = serialize_segment(seq, rows);
  auto st = common::write_file_atomic(segment_path(seq).string(), bytes);
  if (!st.ok()) return st.error();
  return SegmentRef{seq, bytes.size(), common::xxhash64(bytes)};
}

common::Result<std::uint64_t> CheckpointStore::write_manifest(
    const CheckpointManifest& m) const {
  const auto bytes = serialize_manifest(m);
  auto st = common::write_file_atomic(manifest_path(m.seq).string(), bytes);
  if (!st.ok()) return st.error();
  // Keep manifests m.seq and m.seq - 1 and the segments they list; drop
  // older manifests and anything newer left behind by a run this one fell
  // back from.  A failed remove is harmless (extra files only cost disk),
  // so errors are ignored.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const auto name = entry.path().filename().string();
    const auto manifest = numbered(name, "ckpt-");
    const auto segment = numbered(name, "seg-");
    const bool stale = (manifest && *manifest != m.seq &&
                        *manifest + 1 != m.seq) ||
                       (segment && *segment > m.seq);
    if (stale) {
      std::error_code rm;
      std::filesystem::remove(entry.path(), rm);
    }
  }
  return static_cast<std::uint64_t>(bytes.size());
}

common::Result<std::optional<Checkpoint>> CheckpointStore::load_latest(
    const std::function<void(const std::string&)>& note) const {
  const auto report = [&](const std::string& msg) {
    if (note) note(msg);
  };
  std::error_code ec;
  if (!std::filesystem::is_directory(dir_, ec)) {
    return std::optional<Checkpoint>{};
  }
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const auto seq = numbered(entry.path().filename().string(), "ckpt-");
    if (seq.has_value()) found.emplace_back(*seq, entry.path());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [seq, path] : found) {
    const std::string label = "checkpoint " + path.filename().string();
    auto bytes = common::read_file(path.string());
    if (!bytes.ok()) {
      report(label + " unreadable, falling back: " + bytes.error().message);
      continue;
    }
    auto parsed = parse_manifest(bytes.value());
    if (!parsed.ok()) {
      report(label + " corrupt, falling back: " + parsed.error().message);
      continue;
    }
    Checkpoint ckpt;
    ckpt.manifest = std::move(parsed).take();
    // Check every segment before loading any: one bad segment makes the
    // whole generation unusable.
    std::vector<std::string> segments;
    std::string defect;
    for (const auto& ref : ckpt.manifest.segments) {
      const auto seg_path = segment_path(ref.seq);
      auto seg = common::read_file(seg_path.string());
      if (!seg.ok()) {
        defect = seg_path.filename().string() + " unreadable: " +
                 seg.error().message;
      } else if (seg.value().size() != ref.bytes ||
                 common::xxhash64(seg.value()) != ref.hash) {
        defect = seg_path.filename().string() +
                 " does not match its manifest entry";
      }
      if (!defect.empty()) break;
      segments.push_back(std::move(seg).take());
    }
    for (std::size_t i = 0; defect.empty() && i < segments.size(); ++i) {
      const auto st = parse_segment(segments[i], i + 1, ckpt.rows);
      if (!st.ok()) defect = st.error().message;
    }
    if (defect.empty() && ckpt.rows.counts() != ckpt.manifest.emitted) {
      defect = "segments hold a different number of rows than the manifest";
    }
    if (!defect.empty()) {
      report(label + " has a corrupt segment, falling back: " + defect);
      continue;
    }
    return std::optional<Checkpoint>(std::move(ckpt));
  }
  if (!found.empty()) {
    report("no usable checkpoint generation in " + dir_.string() +
           ", starting fresh");
  }
  return std::optional<Checkpoint>{};
}

}  // namespace gpures::serve
