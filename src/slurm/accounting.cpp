#include "slurm/accounting.h"

#include <array>
#include <ostream>

#include "common/fmt.h"
#include "common/strings.h"
#include "common/time.h"

namespace gpures::slurm {

namespace {

// "YYYY-MM-DDTHH:MM:SS" rendered straight into `out` ("%04d" year:
// zero-padded, matching format_iso byte-for-byte).
void append_iso_t(std::string& out, common::TimePoint tp) {
  const common::CalendarTime ct = common::to_calendar(tp);
  common::append_2d(out, ct.year / 100);
  common::append_2d(out, ct.year % 100);
  out += '-';
  common::append_2d(out, ct.month);
  out += '-';
  common::append_2d(out, ct.day);
  out += 'T';
  common::append_2d(out, ct.hour);
  out += ':';
  common::append_2d(out, ct.minute);
  out += ':';
  common::append_2d(out, ct.second);
}

constexpr std::size_t kFieldCount = 11;

// Walk a `sep`-separated list in place, keeping empty items (as
// common::split does: "" is one empty item).  `pos` starts at 0; past the
// last item the call returns false.
bool next_item(std::string_view list, char sep, std::size_t& pos,
               std::string_view& item) {
  if (pos > list.size()) return false;
  std::size_t end = list.find(sep, pos);
  if (end == std::string_view::npos) end = list.size();
  item = list.substr(pos, end - pos);
  pos = end + 1;
  return true;
}

// Cut `line` at every '|' into `out` and return how many fields there are.
// Only the first kFieldCount are stored; the count stays exact past that,
// so a rejection names the real number.
std::size_t split_fields(std::string_view line,
                         std::array<std::string_view, kFieldCount>& out) {
  std::size_t n = 0;
  std::string_view field;
  for (std::size_t pos = 0; next_item(line, '|', pos, field); ++n) {
    if (n < kFieldCount) out[n] = field;
  }
  return n;
}

}  // namespace

std::string accounting_header() { return std::string(kAccountingHeader); }

void append_accounting_line(std::string& out, const JobRecord& rec,
                            const cluster::Topology& topo) {
  common::append_uint(out, rec.id);
  out += '|';
  out += rec.name;
  out += '|';
  append_iso_t(out, rec.submit);
  out += '|';
  append_iso_t(out, rec.start);
  out += '|';
  append_iso_t(out, rec.end);
  out += '|';
  out += to_string(rec.state);
  out += '|';
  common::append_int(out, rec.exit_code);
  out += ":0";
  out += '|';
  common::append_int(out, rec.nodes);
  out += '|';
  common::append_int(out, rec.gpus);
  out += '|';
  for (std::size_t i = 0; i < rec.node_list.size(); ++i) {
    if (i) out += ',';
    out += topo.node(rec.node_list[i]).name;
  }
  out += '|';
  for (std::size_t i = 0; i < rec.gpu_list.size(); ++i) {
    if (i) out += ';';
    out += topo.node(rec.gpu_list[i].node).name;
    out += ':';
    common::append_int(out, rec.gpu_list[i].slot);
  }
}

std::string to_accounting_line(const JobRecord& rec,
                               const cluster::Topology& topo) {
  std::string line;
  line.reserve(128);
  append_accounting_line(line, rec, topo);
  return line;
}

common::Result<JobRecord> parse_accounting_line(
    std::string_view line, const cluster::Topology& topo) {
  std::array<std::string_view, kFieldCount> fields;
  const std::size_t nfields = split_fields(line, fields);
  if (nfields != kFieldCount) {
    return common::Error::make("accounting: expected 11 fields, got " +
                               std::to_string(nfields));
  }
  JobRecord rec;
  const long long id = common::parse_ll(fields[0]);
  if (id < 0) return common::Error::make("accounting: bad JobID");
  rec.id = static_cast<JobId>(id);
  rec.name = std::string(fields[1]);

  const auto submit = common::parse_iso(fields[2]);
  const auto start = common::parse_iso(fields[3]);
  const auto end = common::parse_iso(fields[4]);
  if (!submit || !start || !end) {
    return common::Error::make("accounting: bad timestamp");
  }
  rec.submit = *submit;
  rec.start = *start;
  rec.end = *end;
  // A job cannot end before it starts (or start before submission); such
  // records would poison elapsed-time statistics (Table III) with negative
  // durations, so they are malformed, not data.
  if (rec.end < rec.start || rec.start < rec.submit) {
    return common::Error::make("accounting: non-monotonic Submit/Start/End");
  }

  if (!parse_state(fields[5], rec.state)) {
    return common::Error::make("accounting: unknown state '" +
                               std::string(fields[5]) + "'");
  }
  // ExitCode is "code:signal"; only the code before the first ':' counts.
  const long long code =
      common::parse_ll(fields[6].substr(0, fields[6].find(':')));
  if (code < 0) return common::Error::make("accounting: bad ExitCode");
  rec.exit_code = static_cast<std::int32_t>(code);

  const long long nnodes = common::parse_ll(fields[7]);
  const long long ngpus = common::parse_ll(fields[8]);
  if (nnodes <= 0 || ngpus <= 0) {
    return common::Error::make("accounting: bad NNodes/NGPUs");
  }
  rec.nodes = static_cast<std::int32_t>(nnodes);
  rec.gpus = static_cast<std::int32_t>(ngpus);

  const std::string_view node_field = fields[9];
  if (!node_field.empty()) {
    std::string_view host;
    for (std::size_t pos = 0; next_item(node_field, ',', pos, host);) {
      const auto idx = topo.node_index(host);
      if (!idx) {
        return common::Error::make("accounting: unknown host '" +
                                   std::string(host) + "'");
      }
      rec.node_list.push_back(*idx);
    }
  }
  if (static_cast<std::int32_t>(rec.node_list.size()) != rec.nodes) {
    return common::Error::make("accounting: NodeList length mismatch");
  }
  const std::string_view gpu_field = fields[10];
  if (!gpu_field.empty()) {
    std::string_view entry;
    for (std::size_t pos = 0; next_item(gpu_field, ';', pos, entry);) {
      const auto colon = entry.rfind(':');
      if (colon == std::string_view::npos) {
        return common::Error::make("accounting: bad AllocGPUS entry");
      }
      const auto idx = topo.node_index(entry.substr(0, colon));
      const long long slot = common::parse_ll(entry.substr(colon + 1));
      if (!idx || slot < 0 || slot >= topo.gpus_on_node(*idx)) {
        return common::Error::make("accounting: bad AllocGPUS device");
      }
      rec.gpu_list.push_back({*idx, static_cast<std::int32_t>(slot)});
    }
  }
  if (static_cast<std::int32_t>(rec.gpu_list.size()) != rec.gpus) {
    return common::Error::make("accounting: AllocGPUS length mismatch");
  }
  return rec;
}

void write_accounting(std::ostream& os, const std::vector<JobRecord>& records,
                      const cluster::Topology& topo) {
  os << accounting_header() << '\n';
  for (const auto& rec : records) {
    os << to_accounting_line(rec, topo) << '\n';
  }
}

}  // namespace gpures::slurm
