// Corruption matrix for the mapped index reader: every structure-aware
// fault the chaos corrupter can inject — header/table/payload bit-flips,
// truncation, version skew, a single bad section checksum — must make
// IndexReader::open fail with a located common::Error naming the file.
// Never a crash, never an out-of-bounds read (the suite runs under
// ASan/UBSan in CI), and never a silently wrong answer.  A seeded fuzz
// sweep flips one bit anywhere and demands the integrity chain catches it.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "analysis/availability.h"
#include "analysis/job_stats.h"
#include "chaos/index_chaos.h"
#include "cluster/topology.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/rng.h"
#include "index/format.h"
#include "index/reader.h"
#include "index/writer.h"
#include "xid/xid.h"

namespace an = gpures::analysis;
namespace ch = gpures::chaos;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace ix = gpures::index;
namespace fs = std::filesystem;

namespace {

/// A small but fully populated artifact (every section non-empty) shared by
/// all tests; corruption targets then always have real payload to hit.
class IndexCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new cl::Topology(cl::ClusterSpec::small());
    const auto pds = an::StudyPeriods::make(ct::make_date(2023, 1, 1),
                                            ct::make_date(2023, 2, 1),
                                            ct::make_date(2023, 6, 1));
    errors_ = new std::vector<an::CoalescedError>();
    for (int i = 0; i < 40; ++i) {
      an::CoalescedError e;
      e.time = pds.op.begin + i * 500;
      e.last = e.time + 3;
      e.gpu = {i % topo_->node_count(), i % 4};
      e.code = static_cast<gpures::xid::Code>(i % 2 == 0 ? 63 : 79);
      e.raw_xid = gpures::xid::to_number(e.code);
      e.raw_lines = 1 + static_cast<std::uint32_t>(i % 3);
      errors_->push_back(e);
    }
    jobs_ = new an::JobTable();
    for (std::uint64_t j = 0; j < 25; ++j) {
      an::JobView v;
      v.id = j + 1;
      v.start = pds.op.begin + static_cast<std::int64_t>(j) * 400;
      v.end = v.start + 2000;
      v.state = j % 5 == 0 ? gpures::slurm::JobState::kFailed
                           : gpures::slurm::JobState::kCompleted;
      v.inline_count = 1;
      v.gpus_inline[0] =
          an::pack_gpu(static_cast<std::int32_t>(j) % topo_->node_count(), 0);
      jobs_->jobs.push_back(v);
    }
    unavail_ = new std::vector<an::Unavailability>();
    for (int i = 0; i < 6; ++i) {
      unavail_->push_back({topo_->node(i % topo_->node_count()).name,
                           pds.op.begin + i * 1000,
                           pds.op.begin + i * 1000 + 600});
    }

    ix::IndexBuildInput in;
    in.periods = pds;
    in.topo = topo_;
    in.errors = errors_;
    in.jobs = jobs_;
    in.unavailability = unavail_;
    const auto bytes = ix::serialize_index(in);
    ASSERT_TRUE(bytes.ok()) << bytes.error().message;
    pristine_ = bytes.value();

    // Keyed by pid: ctest -j runs every case of this suite as its own
    // process, and they must not wipe each other's files.
    dir_ = fs::temp_directory_path() /
           ("gpures_idx_corruption_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  static void TearDownTestSuite() {
    fs::remove_all(dir_);
    delete topo_;
    delete errors_;
    delete jobs_;
    delete unavail_;
    topo_ = nullptr;
    errors_ = nullptr;
    jobs_ = nullptr;
    unavail_ = nullptr;
  }

  /// Write `bytes` under a unique name and return the path.
  static std::string write(const std::string& name, const std::string& bytes) {
    const auto path = (dir_ / name).string();
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(static_cast<bool>(os)) << path;
    return path;
  }

  static cl::Topology* topo_;
  static std::vector<an::CoalescedError>* errors_;
  static an::JobTable* jobs_;
  static std::vector<an::Unavailability>* unavail_;
  static std::string pristine_;
  static fs::path dir_;
};

cl::Topology* IndexCorruption::topo_ = nullptr;
std::vector<an::CoalescedError>* IndexCorruption::errors_ = nullptr;
an::JobTable* IndexCorruption::jobs_ = nullptr;
std::vector<an::Unavailability>* IndexCorruption::unavail_ = nullptr;
std::string IndexCorruption::pristine_;
fs::path IndexCorruption::dir_;

/// Open must fail with an error that is *located*: non-empty message naming
/// the artifact, so a user can tell which file is bad.
void expect_located_failure(const std::string& path, const std::string& why) {
  auto opened = ix::IndexReader::open(path);
  ASSERT_FALSE(opened.ok()) << why << ": corrupt index opened successfully";
  const auto& err = opened.error();
  EXPECT_FALSE(err.message.empty()) << why;
  EXPECT_NE(err.message.find(fs::path(path).filename().string()),
            std::string::npos)
      << why << ": error does not name the file: " << err.message;
}

}  // namespace

TEST_F(IndexCorruption, PristineArtifactOpens) {
  const auto path = write("pristine.idx", pristine_);
  const auto opened = ix::IndexReader::open(path);
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  EXPECT_EQ(opened.value().meta().error_count, errors_->size());
}

TEST_F(IndexCorruption, EveryFaultKindFailsOpenAcrossSeeds) {
  constexpr ch::IndexFault kFaults[] = {
      ch::IndexFault::kHeaderBitFlip,  ch::IndexFault::kTableBitFlip,
      ch::IndexFault::kPayloadBitFlip, ch::IndexFault::kTruncate,
      ch::IndexFault::kVersionBump,    ch::IndexFault::kBadSectionHash,
  };
  int cases = 0;
  for (const auto fault : kFaults) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      std::string bytes = pristine_;
      const auto done = ch::corrupt_index_bytes(bytes, seed, fault);
      ASSERT_TRUE(done.ok()) << done.error().message;
      const auto name = std::string(ch::to_string(fault)) + "_" +
                        std::to_string(seed) + ".idx";
      expect_located_failure(write(name, bytes),
                             std::string(ch::to_string(fault)) + " seed " +
                                 std::to_string(seed) + " (" +
                                 done.value().detail + ")");
      ++cases;
    }
  }
  EXPECT_EQ(cases, 120);
}

TEST_F(IndexCorruption, AnySingleBitFlipIsCaughtFuzz) {
  // The format's integrity claim: every byte of the file is covered by
  // exactly one checksum, so *any* single-bit flip must fail open.  250
  // seeded flips at uniformly random positions probe that property.
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    std::string bytes = pristine_;
    const auto done =
        ch::corrupt_index_bytes(bytes, seed, ch::IndexFault::kAnyBitFlip);
    ASSERT_TRUE(done.ok()) << done.error().message;
    const auto path = write("fuzz.idx", bytes);
    auto opened = ix::IndexReader::open(path);
    EXPECT_FALSE(opened.ok())
        << "undetected corruption: " << done.value().detail;
  }
}

TEST_F(IndexCorruption, TruncationSweepNeverCrashes) {
  // Beyond the random truncation fault: cut at every boundary the parser
  // cares about (0, mid-header, end of header, mid-table, end of table,
  // just-shy-of-EOF) plus a seeded sweep of arbitrary cuts.
  const std::vector<std::uint64_t> cuts = {
      0,
      1,
      ix::kHeaderSize / 2,
      ix::kHeaderSize,
      ix::kHeaderSize + 1,
      ix::kSectionBase - 1,
      ix::kSectionBase,
      pristine_.size() - 1,
  };
  for (const auto cut : cuts) {
    expect_located_failure(
        write("trunc.idx", pristine_.substr(0, cut)),
        "truncate to " + std::to_string(cut) + " bytes");
  }
  ct::Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const auto cut = rng.uniform_u64(pristine_.size());
    expect_located_failure(
        write("trunc.idx", pristine_.substr(0, cut)),
        "random truncate to " + std::to_string(cut) + " bytes");
  }
}

TEST_F(IndexCorruption, VersionBumpFailsAsVersionNegotiation) {
  // The corrupter keeps every checksum valid, so the only possible failure
  // is the version check itself — proving forward files are refused for the
  // right reason, with a message a user can act on.
  std::string bytes = pristine_;
  ASSERT_TRUE(
      ch::corrupt_index_bytes(bytes, 7, ch::IndexFault::kVersionBump).ok());
  auto opened = ix::IndexReader::open(write("future.idx", bytes));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.error().message.find("version"), std::string::npos)
      << opened.error().message;
}

TEST_F(IndexCorruption, BadSectionHashNamesTheSection) {
  // Table and header hashes are recomputed by the corrupter, so the reader
  // must reach — and report — the per-section checksum mismatch.
  std::string bytes = pristine_;
  const auto done =
      ch::corrupt_index_bytes(bytes, 11, ch::IndexFault::kBadSectionHash);
  ASSERT_TRUE(done.ok());
  auto opened = ix::IndexReader::open(write("badsec.idx", bytes));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.error().message.find("checksum"), std::string::npos)
      << opened.error().message;
}

TEST_F(IndexCorruption, WrongMagicAndEmptyFileAreRejected) {
  expect_located_failure(write("empty.idx", ""), "empty file");
  expect_located_failure(write("text.idx", "this is not an index\n"),
                         "random text");
  std::string bytes = pristine_;
  bytes[0] = 'X';
  expect_located_failure(write("magic.idx", bytes), "bad magic");
}

TEST_F(IndexCorruption, MissingFileIsALocatedError) {
  auto opened = ix::IndexReader::open((dir_ / "does_not_exist.idx").string());
  ASSERT_FALSE(opened.ok());
  EXPECT_FALSE(opened.error().message.empty());
}

TEST_F(IndexCorruption, CorruptionIsDeterministicPerSeed) {
  for (const auto fault :
       {ch::IndexFault::kAnyBitFlip, ch::IndexFault::kTruncate}) {
    std::string a = pristine_;
    std::string b = pristine_;
    ASSERT_TRUE(ch::corrupt_index_bytes(a, 5, fault).ok());
    ASSERT_TRUE(ch::corrupt_index_bytes(b, 5, fault).ok());
    EXPECT_EQ(a, b) << ch::to_string(fault);
    std::string c = pristine_;
    ASSERT_TRUE(ch::corrupt_index_bytes(c, 6, fault).ok());
    EXPECT_NE(a, c) << ch::to_string(fault) << ": seeds not independent";
  }
}

TEST_F(IndexCorruption, CorruptFileHelperRoundTrips) {
  const auto src = write("src.idx", pristine_);
  const auto dst = (dir_ / "dst.idx").string();
  const auto done = ch::corrupt_index_file(src, dst, 3,
                                           ch::IndexFault::kPayloadBitFlip);
  ASSERT_TRUE(done.ok()) << done.error().message;
  // Source untouched, destination corrupt.
  EXPECT_TRUE(ix::IndexReader::open(src).ok());
  EXPECT_FALSE(ix::IndexReader::open(dst).ok());
}

// ---- column invariants ------------------------------------------------------
// Every invariant open proves after the checksums (the ones binary search and
// CSR indexing rely on) must fail closed on its own: each case breaks exactly
// one column element, re-seals the section hash, the table hash and the
// header hash so the integrity chain passes, and demands open reports that
// invariant — exact message, and the offending section's byte offset.

namespace {

struct SectionSpan {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

unsigned char* byte_at(std::string& bytes, std::uint64_t off) {
  return reinterpret_cast<unsigned char*>(bytes.data()) + off;
}

std::uint64_t entry_offset(ix::SectionId id) {
  return ix::kSectionTableOffset +
         (static_cast<std::uint64_t>(id) - 1) * ix::kSectionEntrySize;
}

SectionSpan section_of(std::string& bytes, ix::SectionId id) {
  const unsigned char* e = byte_at(bytes, entry_offset(id));
  return {ix::load_le64(e + 8), ix::load_le64(e + 16)};
}

/// Recompute the section's hash, then the table hash, then the header hash.
void reseal(std::string& bytes, ix::SectionId id) {
  const auto s = section_of(bytes, id);
  ix::store_le64(byte_at(bytes, entry_offset(id) + 24),
                 ct::xxhash64(bytes.data() + s.offset, s.size));
  ix::store_le64(byte_at(bytes, ix::kOffTableHash),
                 ct::xxhash64(bytes.data() + ix::kSectionTableOffset,
                              ix::kSectionCount * ix::kSectionEntrySize));
  ix::store_le64(byte_at(bytes, ix::kOffHeaderHash),
                 ct::xxhash64(bytes.data(), ix::kHeaderHashedBytes));
}

template <typename T>
std::uint64_t element_count(std::string& bytes, ix::SectionId id) {
  return section_of(bytes, id).size / sizeof(T);  // includes padding slots
}

template <typename T>
T peek(std::string& bytes, ix::SectionId id, std::uint64_t i) {
  T v;
  std::memcpy(&v, byte_at(bytes, section_of(bytes, id).offset + i * sizeof(T)),
              sizeof(T));
  return v;
}

template <typename T>
void poke(std::string& bytes, ix::SectionId id, std::uint64_t i, T v) {
  std::memcpy(byte_at(bytes, section_of(bytes, id).offset + i * sizeof(T)), &v,
              sizeof(T));
}

}  // namespace

class IndexInvariant : public IndexCorruption {
 protected:
  /// Apply `mutate` to a copy of the pristine artifact, re-seal `id`, and
  /// expect open to fail on the invariant `what` located at `id`'s offset.
  template <typename Mutate>
  void expect_invariant(ix::SectionId id, const std::string& what,
                        Mutate mutate) {
    std::string bytes = pristine_;
    mutate(bytes);
    reseal(bytes, id);
    ASSERT_NE(bytes, pristine_) << "mutation changed nothing";
    const auto path = write("invariant.idx", bytes);
    const auto opened = ix::IndexReader::open(path);
    ASSERT_FALSE(opened.ok()) << what << ": broken column opened";
    const auto& err = opened.error();
    const std::uint64_t offset = section_of(bytes, id).offset;
    EXPECT_EQ(err.message, "index invariant violated: " + what + " [" + path +
                               ", byte " + std::to_string(offset) + "]");
    EXPECT_EQ(err.file, path);
    EXPECT_EQ(err.offset, std::optional<std::uint64_t>(offset));
  }

  /// One past the largest packed GPU key the fixture topology allows.
  static std::int64_t past_max_key() {
    return static_cast<std::int64_t>(topo_->node_count()) << 8;
  }
};

TEST_F(IndexInvariant, NodeNameOffsetsNondecreasing) {
  using S = ix::SectionId;
  expect_invariant(S::kNodeNameOffsets,
                   "node-name offsets must be nondecreasing",
                   [](std::string& b) {
                     poke<std::uint32_t>(
                         b, S::kNodeNameOffsets, 1,
                         peek<std::uint32_t>(b, S::kNodeNameOffsets, 2) + 1);
                   });
}

TEST_F(IndexInvariant, ErrorTimesNondecreasing) {
  using S = ix::SectionId;
  expect_invariant(S::kErrTime, "error times must be nondecreasing",
                   [](std::string& b) {
                     poke<std::int64_t>(
                         b, S::kErrTime, 0,
                         peek<std::int64_t>(b, S::kErrTime, 1) + 1);
                   });
}

TEST_F(IndexInvariant, ErrorGpuInTopologyRange) {
  using S = ix::SectionId;
  expect_invariant(S::kErrGpu, "error GPU key out of topology range",
                   [](std::string& b) {
                     poke<std::int32_t>(
                         b, S::kErrGpu, 3,
                         static_cast<std::int32_t>(past_max_key()));
                   });
}

TEST_F(IndexInvariant, LocationKeysStrictlyIncreasing) {
  using S = ix::SectionId;
  expect_invariant(S::kLocKeys, "location keys must be strictly increasing",
                   [](std::string& b) {
                     poke<std::int64_t>(b, S::kLocKeys, 1,
                                        peek<std::int64_t>(b, S::kLocKeys, 0));
                   });
}

TEST_F(IndexInvariant, LocationKeysInTopologyRange) {
  using S = ix::SectionId;
  // The last key is raised past the range, so the keys stay strictly
  // increasing and only the range check can fire.
  expect_invariant(S::kLocKeys, "location key out of topology range",
                   [](std::string& b) {
                     const auto last =
                         element_count<std::int64_t>(b, S::kLocKeys) - 1;
                     poke<std::int64_t>(b, S::kLocKeys, last, past_max_key());
                   });
}

TEST_F(IndexInvariant, LocationOffsetsNondecreasingAndInRange) {
  using S = ix::SectionId;
  expect_invariant(S::kLocOffsets,
                   "location offsets must be nondecreasing and in range",
                   [](std::string& b) {
                     poke<std::uint64_t>(b, S::kLocOffsets, 0, 1);
                   });
}

TEST_F(IndexInvariant, LocationOffsetsCoverEveryEntry) {
  using S = ix::SectionId;
  expect_invariant(S::kLocOffsets, "location offsets must cover every entry",
                   [](std::string& b) {
                     const auto last =
                         element_count<std::uint64_t>(b, S::kLocOffsets) - 1;
                     poke<std::uint64_t>(
                         b, S::kLocOffsets, last,
                         peek<std::uint64_t>(b, S::kLocOffsets, last) - 1);
                   });
}

TEST_F(IndexInvariant, LocationEntriesTimeSortedPerKey) {
  using S = ix::SectionId;
  // Group 0 holds at least two entries (the fixture revisits every GPU).
  expect_invariant(S::kLocTime, "location entries must be time-sorted per key",
                   [](std::string& b) {
                     ASSERT_GE(peek<std::uint64_t>(b, S::kLocOffsets, 1), 2u);
                     poke<std::int64_t>(
                         b, S::kLocTime, 0,
                         peek<std::int64_t>(b, S::kLocTime, 1) + 1);
                   });
}

TEST_F(IndexInvariant, LocationBitInFamilyRange) {
  using S = ix::SectionId;
  expect_invariant(S::kLocBit, "location bit out of family range",
                   [](std::string& b) {
                     poke<std::uint32_t>(b, S::kLocBit, 2,
                                         static_cast<std::uint32_t>(
                                             gpures::xid::report_order().size()));
                   });
}

TEST_F(IndexInvariant, JobEndsNondecreasing) {
  using S = ix::SectionId;
  expect_invariant(S::kJobEnd, "job end times must be nondecreasing",
                   [](std::string& b) {
                     poke<std::int64_t>(
                         b, S::kJobEnd, 4,
                         peek<std::int64_t>(b, S::kJobEnd, 5) + 1);
                   });
}

TEST_F(IndexInvariant, JobGpuOffsetsNondecreasingAndInRange) {
  using S = ix::SectionId;
  expect_invariant(S::kJobGpuOffsets,
                   "job GPU offsets must be nondecreasing and in range",
                   [](std::string& b) {
                     poke<std::uint64_t>(b, S::kJobGpuOffsets, 0, 1);
                   });
}

TEST_F(IndexInvariant, JobGpuOffsetsCoverEveryAllocation) {
  using S = ix::SectionId;
  expect_invariant(S::kJobGpuOffsets,
                   "job GPU offsets must cover every allocation",
                   [](std::string& b) {
                     const auto last =
                         element_count<std::uint64_t>(b, S::kJobGpuOffsets) - 1;
                     poke<std::uint64_t>(
                         b, S::kJobGpuOffsets, last,
                         peek<std::uint64_t>(b, S::kJobGpuOffsets, last) - 1);
                   });
}

TEST_F(IndexInvariant, JobGpuKeysInTopologyRange) {
  using S = ix::SectionId;
  expect_invariant(S::kJobGpuList, "job GPU key out of topology range",
                   [](std::string& b) {
                     poke<std::int32_t>(b, S::kJobGpuList, 7, -1);
                   });
}

TEST_F(IndexInvariant, UnavailabilityNodeInTopologyRange) {
  using S = ix::SectionId;
  expect_invariant(S::kUnavailNode,
                   "unavailability node out of topology range",
                   [](std::string& b) {
                     poke<std::int32_t>(b, S::kUnavailNode, 1,
                                        topo_->node_count());
                   });
}

TEST_F(IndexInvariant, UnavailabilityBeginSorted) {
  using S = ix::SectionId;
  expect_invariant(S::kUnavailBegin,
                   "unavailability intervals must be begin-sorted",
                   [](std::string& b) {
                     poke<std::int64_t>(
                         b, S::kUnavailBegin, 2,
                         peek<std::int64_t>(b, S::kUnavailBegin, 3) + 1);
                   });
}
