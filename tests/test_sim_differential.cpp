// The sharded-simulation hard requirement: for a fixed shard count, the
// campaign's output is byte-identical at ANY --threads — the worker pool
// decides only which thread runs which shard, never what the shards produce.
// This suite runs the same campaign at --threads {0, 2, 4, 8} on the paper's
// 106-node cluster and on a scaled 2,000-node fleet, and compares every
// artifact: raw dataset bytes on disk, simulator ground truth, rendered
// reports/CSV/JSON, and the serialized binary error index.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/dataset.h"
#include "analysis/export.h"
#include "analysis/reports.h"
#include "analyzed_campaign.h"
#include "cluster/topology.h"
#include "index/writer.h"
#include "xid/xid.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace gt = gpures::testing;
namespace ix = gpures::index;
namespace fs = std::filesystem;

namespace {

/// Everything one campaign run produces, reduced to comparable strings.
struct RunArtifacts {
  std::map<std::string, std::string> files;  ///< dataset rel path -> bytes
  std::string reports;                       ///< tables + CSV + JSON exports
  std::string truth;                         ///< serialized ground truth
  std::string index;                         ///< serialized gpures.idx bytes
  std::int32_t shards = 0;
  std::uint64_t raw_lines = 0;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string serialize_truth(const gpures::xid::GroundTruth& t) {
  std::ostringstream os;
  for (const auto& e : t.errors) {
    os << e.time << ' ' << e.gpu.node << ' ' << e.gpu.slot << ' '
       << gpures::xid::to_number(e.code) << ' ' << e.raw_line_count << ' '
       << e.detail << '\n';
  }
  os << "--\n";
  for (const auto& d : t.downtime) {
    os << d.node << ' ' << d.begin << ' ' << d.end << ' ' << d.replacement
       << '\n';
  }
  return os.str();
}

/// Run one campaign into a fresh dataset directory and collect every
/// comparable artifact.  The directory is removed before returning.
RunArtifacts run_campaign(an::CampaignConfig cfg, const std::string& tag) {
  const auto dir = fs::temp_directory_path() / ("gpures_sim_diff_" + tag);
  fs::remove_all(dir);

  RunArtifacts out;
  an::DatasetManifest manifest;
  // Fixed name: the manifest is one of the compared artifacts, so it must
  // not embed the per-run tag (which only keeps the temp dirs distinct).
  manifest.name = "sim-diff";
  manifest.spec = cfg.spec;
  manifest.periods = an::StudyPeriods::make(
      cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);
  an::DatasetWriter writer(dir, manifest);
  gt::AnalyzedCampaign campaign(cfg);
  campaign.set_dataset_writer(&writer);
  campaign.run();
  EXPECT_TRUE(writer.finalize().ok());

  out.shards = campaign.sim_shards();
  out.raw_lines = campaign.raw_log_lines();
  out.truth = serialize_truth(campaign.ground_truth());

  const auto& pipe = campaign.pipeline();
  const auto stats = pipe.error_stats();
  const auto impact = pipe.job_impact();
  const auto jobs = pipe.job_stats();
  const auto avail = pipe.availability();
  std::ostringstream os;
  os << an::render_table1(stats) << an::render_table2(impact)
     << an::render_table3(jobs)
     << an::render_fig2(avail, pipe.mttf_estimate_h());
  an::write_table1_csv(os, stats);
  an::write_table2_csv(os, impact);
  an::write_table3_csv(os, jobs);
  an::write_fig2_csv(os, avail);
  an::ExportBundle bundle;
  bundle.error_stats = &stats;
  bundle.job_stats = &jobs;
  bundle.job_impact = &impact;
  bundle.availability = &avail;
  bundle.mttf_h = pipe.mttf_estimate_h();
  os << an::to_json(bundle);
  out.reports = os.str();

  ix::IndexBuildInput in;
  in.periods = manifest.periods;
  in.topo = &campaign.topology();
  in.errors = &pipe.errors();
  in.jobs = &pipe.jobs();
  in.unavailability = &avail.intervals;
  const auto idx = ix::serialize_index(in);
  EXPECT_TRUE(idx.ok());
  if (idx.ok()) out.index = idx.value();

  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    out.files[fs::relative(entry.path(), dir).generic_string()] =
        slurp(entry.path());
  }
  fs::remove_all(dir);
  return out;
}

/// The assertion core: every artifact of `run` equals `baseline`'s.
void expect_identical(const RunArtifacts& baseline, const RunArtifacts& run,
                      const std::string& what) {
  EXPECT_EQ(baseline.shards, run.shards) << what;
  EXPECT_EQ(baseline.raw_lines, run.raw_lines) << what;
  EXPECT_EQ(baseline.files.size(), run.files.size()) << what;
  for (const auto& [name, bytes] : baseline.files) {
    const auto it = run.files.find(name);
    if (it == run.files.end()) {
      ADD_FAILURE() << what << ": missing dataset file " << name;
      continue;
    }
    EXPECT_EQ(bytes, it->second) << what << ": " << name << " differs";
  }
  EXPECT_EQ(baseline.truth, run.truth) << what << ": ground truth differs";
  EXPECT_EQ(baseline.reports, run.reports) << what << ": reports differ";
  EXPECT_EQ(baseline.index, run.index) << what << ": gpures.idx differs";
}

/// The paper's 106-node cluster, shrunk for test runtime.
an::CampaignConfig delta_cfg(std::uint32_t threads) {
  an::CampaignConfig cfg = an::CampaignConfig::quick();
  cfg.seed = 404;
  cfg.workload_scale *= 0.1;
  cfg.noise_lines_per_day = 40.0;
  cfg.pipeline.num_threads = threads;
  return cfg;
}

/// A 2,000-node Delta-shaped fleet (the gpures-simulate --nodes recipe):
/// keep the 100:6 node-type ratio, scale fault and workload intensity by
/// the GPU ratio, then damp both for test runtime.
an::CampaignConfig fleet_cfg(std::uint32_t threads) {
  an::CampaignConfig cfg = an::CampaignConfig::quick();
  cfg.seed = 808;
  const auto nodes8 =
      static_cast<std::int32_t>(std::llround(2000.0 * 6.0 / 106.0));
  const double base_gpus = cfg.spec.total_gpus();
  cfg.spec = cl::ClusterSpec::scaled(2000 - nodes8, nodes8);
  const double ratio = cfg.spec.total_gpus() / base_gpus;
  cfg.faults.scale *= ratio * 0.02;
  cfg.workload_scale *= ratio * 0.005;
  cfg.noise_lines_per_day = 20.0;
  cfg.pipeline.num_threads = threads;
  return cfg;
}

}  // namespace

TEST(SimDifferential, DeltaClusterByteIdenticalAcrossThreadCounts) {
  const auto baseline = run_campaign(delta_cfg(0), "delta_t0");
  ASSERT_GT(baseline.raw_lines, 0u);
  ASSERT_GT(baseline.files.size(), 10u);  // manifest + accounting + day files
  EXPECT_EQ(baseline.shards, 7);          // 106 nodes / ~16 per shard
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    const auto run =
        run_campaign(delta_cfg(threads), "delta_t" + std::to_string(threads));
    expect_identical(baseline, run,
                     "--threads " + std::to_string(threads) + " (106 nodes)");
  }
}

TEST(SimDifferential, TwoThousandNodeFleetByteIdenticalAcrossThreadCounts) {
  const auto baseline = run_campaign(fleet_cfg(0), "fleet_t0");
  ASSERT_GT(baseline.raw_lines, 0u);
  EXPECT_EQ(baseline.shards, 125);  // 2000 nodes / 16 per shard
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    const auto run =
        run_campaign(fleet_cfg(threads), "fleet_t" + std::to_string(threads));
    expect_identical(baseline, run,
                     "--threads " + std::to_string(threads) + " (2000 nodes)");
  }
}

TEST(SimDifferential, ExplicitShardCountIsAThreadInvariantSamplePath) {
  // Pin --shards away from the auto value: still byte-identical across
  // threads, and a *different* (valid) sample path from the auto sharding.
  auto pinned = [](std::uint32_t threads, std::int32_t shards) {
    auto cfg = delta_cfg(threads);
    cfg.with_jobs = false;  // cluster dynamics only; keeps these runs cheap
    cfg.sim_shards = shards;
    return cfg;
  };
  const auto baseline = run_campaign(pinned(0, 3), "pinned_t0");
  EXPECT_EQ(baseline.shards, 3);
  const auto parallel = run_campaign(pinned(8, 3), "pinned_t8");
  expect_identical(baseline, parallel, "--threads 8 (--shards 3)");

  const auto resharded = run_campaign(pinned(0, 5), "pinned_s5");
  EXPECT_EQ(resharded.shards, 5);
  EXPECT_NE(baseline.truth, resharded.truth)
      << "--shards should select a distinct per-shard RNG stream assignment";
}

TEST(SimDifferential, NoiseHeavyCampaignByteIdenticalAcrossThreadCounts) {
  // Thousands of noise lines a day: with --threads > 0 each day's noise is
  // rendered a day ahead on a helper thread and spliced after the day's
  // simulated lines, and the days are counting-sorted.  The dataset must
  // not depend on any of it.
  auto noisy = [](std::uint32_t threads) {
    auto cfg = delta_cfg(threads);
    cfg.with_jobs = false;  // the emit path, not the scheduler
    cfg.noise_lines_per_day = 3000.0;
    return cfg;
  };
  const auto baseline = run_campaign(noisy(0), "noisy_t0");
  ASSERT_GT(baseline.raw_lines, 90u * 2500u);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    const auto run =
        run_campaign(noisy(threads), "noisy_t" + std::to_string(threads));
    expect_identical(baseline, run,
                     "--threads " + std::to_string(threads) + " (noisy)");
  }
}
