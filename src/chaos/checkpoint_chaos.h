// Structure-aware corrupter for serve checkpoint files.
//
// Sibling of the index corrupter (index_chaos.h), specialized to the
// checkpoint layout (see serve/checkpoint.h).  A checkpoint generation is a
// manifest (ckpt-NNNNNNNN.bin) plus the segments it lists (seg-NNNNNNNN.bin);
// both share one frame — a 40-byte header (magic, version, endian tag,
// payload size, payload XXH64, header XXH64) followed by the serialized
// payload — so every fault applies to either kind.  Faults target specific
// validation steps so tests can assert parse_manifest / parse_segment fail
// on the *intended* check, and that CheckpointStore::load_latest falls back
// past the damaged generation instead of crashing.  kVersionBump recomputes
// the header hash so the reader's rejection is provably version
// negotiation, not an incidental checksum mismatch.
//
// Deterministic: (seed, fault) over the same input bytes always produces
// the same corrupted bytes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "common/error.h"

namespace gpures::chaos {

enum class CheckpointFault : std::uint8_t {
  kHeaderBitFlip,   ///< flip one bit in the 40-byte header
  kPayloadBitFlip,  ///< flip one bit in the payload
  kAnyBitFlip,      ///< flip one bit anywhere in the file
  kTruncate,        ///< cut the file short
  kVersionBump,     ///< future format version, header hash fixed up
};

std::string_view to_string(CheckpointFault fault);

/// What was done, for test diagnostics.
struct CheckpointCorruption {
  CheckpointFault fault = CheckpointFault::kAnyBitFlip;
  std::uint64_t original_size = 0;
  std::uint64_t corrupted_size = 0;
  std::uint64_t byte_offset = 0;  ///< flipped byte / first truncated byte
  std::uint32_t bit = 0;          ///< flipped bit index for bit-flip faults
  std::filesystem::path file;     ///< the damaged file, for file faults
  std::string detail;
};

/// Corrupt serialized checkpoint `bytes` in place.  Fails (without touching
/// `bytes`) when the input is too small to host the fault.
common::Result<CheckpointCorruption> corrupt_checkpoint_bytes(
    std::string& bytes, std::uint64_t seed, CheckpointFault fault);

/// Read `src`, corrupt, write `dst` (never modifies `src`; `src` == `dst`
/// overwrites in place on disk).
common::Result<CheckpointCorruption> corrupt_checkpoint_file(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, CheckpointFault fault);

/// Which file of a checkpoint store to damage.
enum class CheckpointTarget : std::uint8_t {
  kNewestManifest,  ///< fallback to the previous generation
  kNewestSegment,   ///< listed only by the newest manifest: fallback
  kOldestSegment,   ///< shared by every generation: fresh start
};

std::string_view to_string(CheckpointTarget target);

/// Corrupt the `target` file of the checkpoint store in `dir` in place.
/// Fails when the store holds no such file.
common::Result<CheckpointCorruption> corrupt_checkpoint_store(
    const std::filesystem::path& dir, CheckpointTarget target,
    std::uint64_t seed, CheckpointFault fault);

}  // namespace gpures::chaos
