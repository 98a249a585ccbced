// Run-provenance manifest: who produced an artifact set, from what inputs,
// with what code.
//
// The reproduced paper's pipeline is trustworthy because every stage's
// inputs and drops are accounted for; the manifest applies the same
// discipline to our own runs.  Emitted as run_manifest.json alongside every
// artifact set (dataset directories, CSV export directories), it records the
// seed, a hash of the effective configuration, the library version
// (git describe when available), host, thread count, wall-clock start/end,
// and — via an attached MetricsRegistry snapshot — per-stage totals.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpures::obs {

class MetricsRegistry;

/// FNV-1a 64-bit hash (used for config fingerprints).
std::uint64_t fnv1a64(std::string_view s);

/// Lower-case hex rendering of a 64-bit value, zero-padded to 16 chars.
std::string hex64(std::uint64_t v);

/// Library version: `git describe --always --dirty` captured at configure
/// time, falling back to the project version when git is unavailable.
std::string version_string();

/// Best-effort hostname ("unknown" when unavailable).
std::string hostname_string();

/// Current wall-clock time as "YYYY-MM-DD HH:MM:SS" UTC.
std::string wall_clock_iso();

struct RunManifest {
  std::string tool;         ///< e.g. "gpures-simulate"
  std::string dataset;      ///< dataset directory or name
  std::uint64_t seed = 0;
  /// hex64 of the effective configuration's hash: xxhash64 via
  /// ServeSession::config_hash() in gpures-analyze, fnv1a64 of the campaign
  /// config in gpures-simulate.
  std::string config_hash;
  std::string version = version_string();
  std::string host = hostname_string();
  std::uint32_t threads = 0;
  std::string started_at;
  std::string finished_at;
  /// Free-form extra provenance (argv summary, artifact counts, ...).
  std::vector<std::pair<std::string, std::string>> extra;

  /// Serialize; when `metrics` is non-null its full snapshot is embedded
  /// under "metrics" (this is where per-stage totals live).
  std::string to_json(const MetricsRegistry* metrics = nullptr) const;
};

}  // namespace gpures::obs
