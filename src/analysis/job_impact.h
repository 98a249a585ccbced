// Stage III: propagation of GPU errors to user jobs (paper Table II, §V-B).
//
// A job "encounters" an XID family when a coalesced error of that family is
// logged on one of its allocated nodes while the job is running.  A job is
// classified "GPU-failed" when it ends in a failure state and a GPU error
// was detected on its nodes within the attribution window (the paper's 20
// seconds) preceding its end.  Per family, the job-failure probability is
// (#GPU-failed jobs encountering it in the window) / (#jobs encountering it).
//
// The exposure join is the Stage-III scaling bottleneck: it correlates every
// job against every error on the job's locations.  It runs against a
// read-only ErrorIndex (per-location sorted interval lists, built once) and
// can be sharded over contiguous job ranges on a thread pool; per-shard
// outputs are merged in fixed shard order, so the parallel result is
// byte-identical to the serial one (see DESIGN.md "Parallel pipeline
// determinism").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/job_stats.h"
#include "analysis/periods.h"
#include "common/thread_pool.h"

namespace gpures::analysis {

/// Error-to-job attribution granularity.  The paper's Table II numbers imply
/// device-level correlation (a job "encounters" an error only if it holds
/// the logging GPU); node-level attribution — counting every job on the
/// node — is kept as a methodology ablation and systematically dilutes the
/// measured failure probabilities.
enum class Attribution { kGpuLevel, kNodeLevel };

struct JobImpactConfig {
  /// Attribution window: error within this many seconds before job end.
  common::Duration window = 20;
  /// Restrict to jobs that end inside this period (the paper analyzes the
  /// operational period only).
  Period period;
  Attribution attribution = Attribution::kGpuLevel;
};

/// One Table II row.
struct ImpactRow {
  xid::Code code;
  std::uint64_t failed_jobs = 0;       ///< GPU-failed jobs with this XID in window
  std::uint64_t encountering_jobs = 0; ///< jobs with this XID during their run
  double failure_probability = 0.0;    ///< failed / encountering (window-based)
  common::Proportion ci;               ///< Wilson interval on the probability
};

struct JobImpact {
  JobImpactConfig cfg;
  std::vector<ImpactRow> rows;              ///< paper report order
  std::uint64_t gpu_failed_jobs = 0;        ///< distinct GPU-failed jobs
  std::uint64_t jobs_analyzed = 0;          ///< jobs ending in the period
  std::uint64_t failed_jobs_total = 0;      ///< jobs in any failure state

  const ImpactRow* find(xid::Code code) const;
};

/// Per-job exposure record for jobs that encountered at least one error.
/// Bits index into xid::report_order().
struct JobExposure {
  std::size_t job_index = 0;       ///< into JobTable::jobs
  std::uint32_t run_mask = 0;      ///< families seen during the run
  std::uint32_t window_mask = 0;   ///< families seen in the final window
  bool gpu_failed = false;         ///< failure state + window error
};

/// Read-only per-location error index for the exposure join.  One flat
/// (time, family-bit) array grouped by location key — a packed GPU for
/// device-level attribution, a node index for node-level — with each group
/// sorted by time.  Built once per join (O(E log E)) and then shared by
/// every job shard; lookups are a binary search over the key directory plus
/// a lower_bound inside the group.  The exposure masks OR over a time range,
/// so the within-tie entry order cannot affect any result.
class ErrorIndex {
 public:
  struct Entry {
    common::TimePoint time = 0;
    std::uint32_t bit = 0;  ///< index into xid::report_order()
  };

  /// Time-sorted errors logged at `key`; empty when the location is clean.
  std::span<const Entry> at(std::int64_t key) const;

  bool gpu_level() const { return gpu_level_; }
  std::size_t locations() const { return keys_.size(); }
  std::size_t entries() const { return entries_.size(); }

 private:
  friend ErrorIndex build_error_index(const std::vector<CoalescedError>&,
                                      const JobImpactConfig&);
  bool gpu_level_ = true;
  std::vector<std::int64_t> keys_;      ///< sorted distinct location keys
  std::vector<std::size_t> offsets_;    ///< keys_.size() + 1 group bounds
  std::vector<Entry> entries_;          ///< grouped by key, time-sorted
};

/// Index the errors falling inside cfg.period at cfg.attribution granularity.
ErrorIndex build_error_index(const std::vector<CoalescedError>& errors,
                             const JobImpactConfig& cfg);

/// Per-shard tallies of one exposure join (shard 0 only in serial mode).
/// Reported through the obs registry as the pipe.stage3.shard_{jobs,exposed}
/// families, one {shard="N"} child per shard.
struct ExposureJoinStats {
  struct Shard {
    std::uint64_t jobs_scanned = 0;  ///< jobs in the shard's range and period
    std::uint64_t jobs_exposed = 0;  ///< of those, jobs with >= 1 error
  };
  std::vector<Shard> shards;

  std::uint64_t total_exposed() const;
};

/// Compute exposures for every job ending in cfg.period (jobs with no
/// errors are omitted).  Shared by the Table II computation and the
/// mitigation what-ifs.  With a pool, the job table is sharded into
/// pool->size() contiguous ranges joined concurrently against `index`;
/// per-shard outputs are concatenated in shard order, so the returned
/// vector is identical to a serial join for any worker count.
std::vector<JobExposure> compute_exposures(
    const JobTable& table, const ErrorIndex& index, const JobImpactConfig& cfg,
    common::ThreadPool* pool = nullptr, ExposureJoinStats* stats = nullptr);

/// Convenience overload: builds the index, then joins serially.
std::vector<JobExposure> compute_exposures(
    const JobTable& table, const std::vector<CoalescedError>& errors,
    const JobImpactConfig& cfg);

/// Bit index of a family in exposure masks; -1 if not a reported family.
int exposure_bit(xid::Code code);

/// Correlate coalesced errors with job records.  Errors may be in any order;
/// jobs may be in any order.  With a pool, the join is sharded as in
/// compute_exposures and per-shard counter vectors are merged in fixed
/// shard order — integer sums, so the result is exactly the serial one.
JobImpact compute_job_impact(const JobTable& table,
                             const std::vector<CoalescedError>& errors,
                             const JobImpactConfig& cfg,
                             common::ThreadPool* pool = nullptr,
                             ExposureJoinStats* stats = nullptr);

}  // namespace gpures::analysis
