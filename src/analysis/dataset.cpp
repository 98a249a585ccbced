#include "analysis/dataset.h"

#include <fstream>

#include "common/io.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace gpures::analysis {

namespace fs = std::filesystem;

namespace {

/// write_day's gather block: large enough that a day's sorted noise costs a
/// few writes, small enough to keep for the whole run.
constexpr std::size_t kWriteBlock = std::size_t{1} << 20;

}  // namespace

std::string DatasetManifest::serialize() const {
  std::string out;
  out += "name=" + name + "\n";
  out += "study_begin=" + common::format_date(periods.pre.begin) + "\n";
  out += "op_begin=" + common::format_date(periods.op.begin) + "\n";
  out += "study_end=" + common::format_date(periods.op.end) + "\n";
  out += "nodes=" + std::to_string(spec.node_count()) + "\n";
  for (const auto& n : spec.nodes) {
    out += "node=" + n.name + ":" + std::to_string(n.gpu_count) + "\n";
  }
  return out;
}

common::Result<DatasetManifest> DatasetManifest::parse(std::string_view text) {
  DatasetManifest m;
  m.spec.nodes.clear();
  common::TimePoint begin = 0;
  common::TimePoint op = 0;
  common::TimePoint end = 0;
  bool have_begin = false;
  bool have_op = false;
  bool have_end = false;
  bool have_name = false;
  long long declared_nodes = -1;
  std::uint64_t line_no = 0;
  const auto fail = [&](std::string msg) {
    return common::Error::at("manifest: " + std::move(msg), "manifest.txt",
                             line_no);
  };
  for (const auto raw_line : common::split(text, '\n')) {
    ++line_no;
    const auto line = common::trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      return fail("malformed line '" + std::string(line) + "'");
    }
    const auto key = line.substr(0, eq);
    const auto value = line.substr(eq + 1);
    if (key == "name") {
      if (have_name) return fail("duplicate key 'name'");
      have_name = true;
      m.name = std::string(value);
    } else if (key == "study_begin" || key == "op_begin" || key == "study_end") {
      const auto t = common::parse_iso(value);
      if (!t) return fail("bad date in " + std::string(key));
      if (key == "study_begin") {
        if (have_begin) return fail("duplicate key 'study_begin'");
        begin = *t;
        have_begin = true;
      }
      if (key == "op_begin") {
        if (have_op) return fail("duplicate key 'op_begin'");
        op = *t;
        have_op = true;
      }
      if (key == "study_end") {
        if (have_end) return fail("duplicate key 'study_end'");
        end = *t;
        have_end = true;
      }
    } else if (key == "node") {
      const auto colon = value.rfind(':');
      if (colon == std::string_view::npos) {
        return fail("bad node entry");
      }
      const long long gpus = common::parse_ll(value.substr(colon + 1));
      if (gpus <= 0 || gpus > 8) {
        return fail("bad node GPU count");
      }
      m.spec.nodes.push_back({std::string(value.substr(0, colon)),
                              static_cast<std::int32_t>(gpus)});
    } else if (key == "nodes") {
      if (declared_nodes >= 0) return fail("duplicate key 'nodes'");
      declared_nodes = common::parse_ll(value);
      if (declared_nodes < 0) return fail("bad value for 'nodes'");
    } else {
      return fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!have_begin || !have_op || !have_end) {
    return common::Error::make("manifest: missing period boundaries");
  }
  if (m.spec.nodes.empty()) {
    return common::Error::make("manifest: no nodes");
  }
  // A declared count that disagrees with the entries means the manifest was
  // truncated or spliced — exactly the corruption this check exists to catch.
  if (declared_nodes >= 0 &&
      declared_nodes != static_cast<long long>(m.spec.nodes.size())) {
    return common::Error::make(
        "manifest: nodes=" + std::to_string(declared_nodes) + " but " +
        std::to_string(m.spec.nodes.size()) + " node entries");
  }
  try {
    m.periods = StudyPeriods::make(begin, op, end);
  } catch (const std::invalid_argument& e) {
    return common::Error::make(std::string("manifest: ") + e.what());
  }
  return m;
}

DatasetWriter::DatasetWriter(fs::path dir, DatasetManifest manifest)
    : dir_(std::move(dir)), manifest_(std::move(manifest)) {
  fs::create_directories(dir_ / "syslog");
  accounting_.open(dir_ / "slurm_accounting.txt",
                   std::ios::trunc | std::ios::binary);
  if (!accounting_) {
    throw std::runtime_error("DatasetWriter: cannot create accounting file in " +
                             dir_.string());
  }
}

DatasetWriter::~DatasetWriter() {
  // Destructors must not fail; an explicit finalize() observes the status.
  (void)finalize();
}

void DatasetWriter::note_write_failure(const std::string& what) {
  if (write_error_.empty()) write_error_ = what;
}

void DatasetWriter::write_day(common::TimePoint day_start,
                              const logsys::DayBuffer& day) {
  OBS_SPAN("dataset.write_day");
  const auto path =
      dir_ / "syslog" / ("syslog-" + common::format_date(day_start) + ".log");
  std::ofstream os(path, std::ios::trunc | std::ios::binary);
  if (!os) {
    note_write_failure("DatasetWriter: cannot write " + path.string());
    return;
  }
  // Sorted noise lines are short runs scattered through the arena; gather
  // them into the reused block so the day costs a few large writes, not one
  // write per line.  A run at least a block long goes out directly.
  const auto put = [&os](std::string_view bytes) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  block_.clear();
  day.for_each_run([&](std::string_view run) {
    if (block_.size() + run.size() > kWriteBlock && !block_.empty()) {
      put(block_);
      block_.clear();
    }
    if (run.size() >= kWriteBlock) {
      put(run);
    } else {
      block_ += run;
    }
  });
  put(block_);
  os.flush();
  if (!os) {
    note_write_failure("DatasetWriter: write failed on " + path.string());
    return;
  }
  ++days_;
}

void DatasetWriter::write_day(common::TimePoint day_start,
                              const std::vector<logsys::RawLine>& lines) {
  logsys::DayBuffer day;
  std::size_t bytes = 0;
  for (const auto& l : lines) bytes += l.text.size() + 1;
  day.reserve(lines.size(), bytes);
  for (const auto& l : lines) day.append(l.time, l.text);
  write_day(day_start, day);
}

void DatasetWriter::write_accounting_line(std::string_view line) {
  accounting_ << line << '\n';
  if (!accounting_) {
    note_write_failure("DatasetWriter: accounting write failed in " +
                       dir_.string());
  }
}

common::Status DatasetWriter::finalize() {
  if (finalized_) return final_status_;
  finalized_ = true;
  accounting_.flush();
  if (!accounting_) {
    note_write_failure("DatasetWriter: accounting flush failed in " +
                       dir_.string());
  }
  accounting_.close();
  std::ofstream os(dir_ / "manifest.txt", std::ios::trunc | std::ios::binary);
  if (!os) {
    note_write_failure("DatasetWriter: cannot write manifest in " +
                       dir_.string());
  } else {
    os << manifest_.serialize();
    os.flush();
    if (!os) {
      note_write_failure("DatasetWriter: manifest write failed in " +
                         dir_.string());
    }
  }
  if (!write_error_.empty()) {
    final_status_ = common::Error::make(write_error_);
  }
  return final_status_;
}

common::Result<DatasetManifest> read_manifest(const fs::path& dir) {
  auto text = common::read_file((dir / "manifest.txt").string());
  if (!text.ok()) {
    return common::Error::make("dataset: missing manifest.txt in " +
                               dir.string());
  }
  return DatasetManifest::parse(text.value());
}

std::optional<common::TimePoint> day_file_date(std::string_view filename) {
  // Exactly "syslog-YYYY-MM-DD.log": 7 + 10 + 4 chars.
  if (filename.size() != 21) return std::nullopt;
  if (!common::starts_with(filename, "syslog-")) return std::nullopt;
  if (filename.substr(17) != ".log") return std::nullopt;
  const auto date = filename.substr(7, 10);
  for (std::size_t i = 0; i < date.size(); ++i) {
    const char c = date[i];
    if (i == 4 || i == 7) {
      if (c != '-') return std::nullopt;
    } else if (c < '0' || c > '9') {
      return std::nullopt;
    }
  }
  return common::parse_iso(date);
}

}  // namespace gpures::analysis
