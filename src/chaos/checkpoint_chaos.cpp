#include "chaos/checkpoint_chaos.h"

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "common/io.h"
#include "common/rng.h"
#include "index/format.h"
#include "serve/checkpoint.h"

namespace gpures::chaos {

namespace {

// Header field offsets (see serve/checkpoint.h): magic[8], version u32,
// endian u32, payload_size u64, payload_hash u64, header_hash u64.
constexpr std::uint64_t kOffVersion = 8;
constexpr std::uint64_t kOffHeaderHash = 32;
constexpr std::uint64_t kHeaderHashedBytes = 32;

unsigned char* bytes_at(std::string& s, std::uint64_t off) {
  return reinterpret_cast<unsigned char*>(s.data()) + off;
}

CheckpointCorruption flip_bit(std::string& s, common::Rng& rng,
                              std::uint64_t lo, std::uint64_t hi,
                              CheckpointFault fault, std::string_view where) {
  CheckpointCorruption c;
  c.fault = fault;
  c.original_size = s.size();
  c.corrupted_size = s.size();
  c.byte_offset = lo + rng.uniform_u64(hi - lo);
  c.bit = static_cast<std::uint32_t>(rng.uniform_u64(8));
  *bytes_at(s, c.byte_offset) ^= static_cast<unsigned char>(1u << c.bit);
  c.detail = "flipped bit " + std::to_string(c.bit) + " of byte " +
             std::to_string(c.byte_offset) + " (" + std::string(where) + ")";
  return c;
}

}  // namespace

std::string_view to_string(CheckpointFault fault) {
  switch (fault) {
    case CheckpointFault::kHeaderBitFlip: return "header-bit-flip";
    case CheckpointFault::kPayloadBitFlip: return "payload-bit-flip";
    case CheckpointFault::kAnyBitFlip: return "any-bit-flip";
    case CheckpointFault::kTruncate: return "truncate";
    case CheckpointFault::kVersionBump: return "version-bump";
  }
  return "unknown";
}

common::Result<CheckpointCorruption> corrupt_checkpoint_bytes(
    std::string& bytes, std::uint64_t seed, CheckpointFault fault) {
  common::Rng rng(seed);
  rng = rng.fork(to_string(fault));

  const std::uint64_t size = bytes.size();
  if (size < serve::kCheckpointHeaderSize) {
    return common::Error::make(
        "corrupt_checkpoint: input is smaller than a checkpoint header (" +
        std::to_string(size) + " bytes)");
  }

  switch (fault) {
    case CheckpointFault::kHeaderBitFlip:
      return flip_bit(bytes, rng, 0, serve::kCheckpointHeaderSize, fault,
                      "header");
    case CheckpointFault::kPayloadBitFlip: {
      if (size <= serve::kCheckpointHeaderSize) {
        return common::Error::make(
            "corrupt_checkpoint: no payload bytes to corrupt");
      }
      return flip_bit(bytes, rng, serve::kCheckpointHeaderSize, size, fault,
                      "payload");
    }
    case CheckpointFault::kAnyBitFlip:
      return flip_bit(bytes, rng, 0, size, fault, "anywhere");
    case CheckpointFault::kTruncate: {
      CheckpointCorruption c;
      c.fault = fault;
      c.original_size = size;
      // Cut anywhere in [0, size): always strictly shorter, so either the
      // header check or the payload-size check must fire.
      c.byte_offset = rng.uniform_u64(size);
      bytes.resize(c.byte_offset);
      c.corrupted_size = bytes.size();
      c.detail = "truncated from " + std::to_string(size) + " to " +
                 std::to_string(c.byte_offset) + " bytes";
      return c;
    }
    case CheckpointFault::kVersionBump: {
      CheckpointCorruption c;
      c.fault = fault;
      c.original_size = size;
      c.corrupted_size = size;
      c.byte_offset = kOffVersion;
      index::store_le32(bytes_at(bytes, kOffVersion),
                        serve::kCheckpointVersion + 1);
      // Keep the header self-consistent so the reader's rejection is the
      // version check, not the header checksum.
      index::store_le64(bytes_at(bytes, kOffHeaderHash),
                        common::xxhash64(bytes.data(), kHeaderHashedBytes));
      c.detail = "bumped version to " +
                 std::to_string(serve::kCheckpointVersion + 1) +
                 ", header hash fixed up";
      return c;
    }
  }
  return common::Error::make("corrupt_checkpoint: unknown fault");
}

common::Result<CheckpointCorruption> corrupt_checkpoint_file(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, CheckpointFault fault) {
  auto text = common::read_file(src.string());
  if (!text.ok()) return text.error();
  std::string bytes = std::move(text).take();
  auto c = corrupt_checkpoint_bytes(bytes, seed, fault);
  if (!c.ok()) return c;
  const auto st = common::write_text_file(dst.string(), bytes);
  if (!st.ok()) return st.error();
  c.value().file = dst;
  return c;
}

std::string_view to_string(CheckpointTarget target) {
  switch (target) {
    case CheckpointTarget::kNewestManifest: return "newest-manifest";
    case CheckpointTarget::kNewestSegment: return "newest-segment";
    case CheckpointTarget::kOldestSegment: return "oldest-segment";
  }
  return "unknown";
}

common::Result<CheckpointCorruption> corrupt_checkpoint_store(
    const std::filesystem::path& dir, CheckpointTarget target,
    std::uint64_t seed, CheckpointFault fault) {
  const std::string prefix =
      target == CheckpointTarget::kNewestManifest ? "ckpt-" : "seg-";
  // Sequence numbers are zero-padded, so name order is generation order.
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && name.ends_with(".bin")) {
      files.push_back(entry.path());
    }
  }
  if (files.empty()) {
    return common::Error::make("corrupt_checkpoint_store: no " + prefix +
                               "*.bin in " + dir.string());
  }
  std::sort(files.begin(), files.end());
  const auto& victim = target == CheckpointTarget::kOldestSegment
                           ? files.front()
                           : files.back();
  return corrupt_checkpoint_file(victim, victim, seed, fault);
}

}  // namespace gpures::chaos
