// IndexReader::open proves every column invariant element by element, yet
// its heap traffic must not grow with the index: a passing check builds no
// message, and the only allocation open makes beyond fixed bookkeeping is
// the per-node key directory.  An index ten times larger (same topology)
// must therefore open with exactly the same number of allocations.
//
// This binary overrides global operator new with a counting hook, so the
// claim is asserted, not assumed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <unistd.h>
#include <vector>

#include "analysis/availability.h"
#include "analysis/job_stats.h"
#include "cluster/topology.h"
#include "index/reader.h"
#include "index/writer.h"
#include "xid/xid.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace ix = gpures::index;
namespace fs = std::filesystem;

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

/// Write an index of `scale` x (100 errors, 50 jobs, 10 intervals) over a
/// fixed topology, so only the column lengths differ between scales.
std::string write_scaled_index(const cl::Topology& topo, const fs::path& dir,
                               int scale) {
  const auto pds = an::StudyPeriods::make(ct::make_date(2023, 1, 1),
                                          ct::make_date(2023, 2, 1),
                                          ct::make_date(2023, 6, 1));
  constexpr int kCodes[] = {31, 48, 63, 74, 79, 94, 119, 122};
  std::vector<an::CoalescedError> errors;
  for (int i = 0; i < 100 * scale; ++i) {
    an::CoalescedError e;
    e.time = pds.op.begin + i * 37;
    e.last = e.time;
    const std::int32_t node = i % topo.node_count();
    e.gpu = {node, (i / 7) % topo.gpus_on_node(node)};
    e.code = static_cast<gpures::xid::Code>(kCodes[i % std::size(kCodes)]);
    e.raw_xid = gpures::xid::to_number(e.code);
    e.raw_lines = 1;
    errors.push_back(e);
  }
  an::JobTable jobs;
  for (int j = 0; j < 50 * scale; ++j) {
    an::JobView v;
    v.id = static_cast<std::uint64_t>(j) + 1;
    v.start = pds.op.begin + j * 70;
    v.end = v.start + 900;
    v.state = j % 4 == 0 ? gpures::slurm::JobState::kFailed
                         : gpures::slurm::JobState::kCompleted;
    v.inline_count = 2;
    const std::int32_t node = j % topo.node_count();
    v.gpus_inline[0] = an::pack_gpu(node, 0);
    v.gpus_inline[1] = an::pack_gpu(node, 1);
    jobs.jobs.push_back(v);
  }
  std::vector<an::Unavailability> unavail;
  for (int i = 0; i < 10 * scale; ++i) {
    unavail.push_back({topo.node(i % topo.node_count()).name,
                       pds.op.begin + i * 500, pds.op.begin + i * 500 + 300});
  }
  ix::IndexBuildInput in;
  in.periods = pds;
  in.topo = &topo;
  in.errors = &errors;
  in.jobs = &jobs;
  in.unavailability = &unavail;
  const auto path = (dir / ("scale" + std::to_string(scale) + ".idx")).string();
  const auto wrote = ix::write_index(in, path);
  EXPECT_TRUE(wrote.ok()) << wrote.error().message;
  return path;
}

/// Heap allocations made by one successful IndexReader::open of `path`.
std::uint64_t open_allocations(const std::string& path) {
  const auto before = g_heap_allocs.load(std::memory_order_relaxed);
  auto opened = ix::IndexReader::open(path);
  const auto after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_TRUE(opened.ok()) << opened.error().message;
  return after - before;
}

}  // namespace

TEST(IndexOpenAllocation, CountDoesNotGrowWithTheIndex) {
  const cl::Topology topo(cl::ClusterSpec::small(6, 2));
  // Keyed by pid: ctest -j runs each case of a suite as its own process.
  const auto dir = fs::temp_directory_path() /
                   ("gpures_idx_open_alloc_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto small = write_scaled_index(topo, dir, 1);
  const auto large = write_scaled_index(topo, dir, 10);
  ASSERT_GT(fs::file_size(large), 8 * fs::file_size(small));

  open_allocations(small);  // warm any one-time lazy state
  const auto small_allocs = open_allocations(small);
  const auto large_allocs = open_allocations(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "open allocates per column element";
  // Fixed bookkeeping (the path, the mapping) plus the key directory.
  EXPECT_LE(large_allocs, 8u);
  fs::remove_all(dir);
}
