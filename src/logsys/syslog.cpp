#include "logsys/syslog.h"

#include <array>
#include <cstdint>

#include "common/fmt.h"

namespace gpures::logsys {

namespace {

void append_header(std::string& out, common::TimePoint t,
                   std::string_view host) {
  common::append_syslog_time(out, t);
  out += ' ';
  out += host;
  out += ' ';
}

/// A noise format string cut at its "%u" fields: spans[i] precedes field i
/// and spans[fields] ends the line.
struct NoiseTemplate {
  std::array<std::string_view, 5> spans{};
  std::size_t fields = 0;
};

/// Cut `fmt` at each "%u".  Evaluated at compile time, so a template with
/// more than four fields fails to build.
constexpr NoiseTemplate split_template(std::string_view fmt) {
  NoiseTemplate t;
  std::size_t pos = 0;
  for (auto hole = fmt.find("%u"); hole != std::string_view::npos;
       hole = fmt.find("%u", pos)) {
    t.spans[t.fields++] = fmt.substr(pos, hole - pos);
    pos = hole + 2;
  }
  t.spans[t.fields] = fmt.substr(pos);
  return t;
}

}  // namespace

void append_xid_line(std::string& out, common::TimePoint t,
                     std::string_view host, std::string_view pci_bus,
                     xid::Code code, std::string_view detail) {
  append_header(out, t, host);
  out += "kernel: NVRM: Xid (PCI:";
  out += pci_bus;
  out += "): ";
  common::append_uint(out, xid::to_number(code));
  out += ", ";
  out += detail;
}

void append_drain_line(std::string& out, common::TimePoint t,
                       std::string_view host, std::string_view reason) {
  append_header(out, t, host);
  out += "slurmctld[2112]: update_node: node ";
  out += host;
  out += " reason set to: ";
  out += reason;
  out += " [drain]";
}

void append_resume_line(std::string& out, common::TimePoint t,
                        std::string_view host) {
  append_header(out, t, host);
  out += "slurmctld[2112]: update_node: node ";
  out += host;
  out += " state set to: resume";
}

void append_noise_line(std::string& out, common::Rng& rng, common::TimePoint t,
                       std::string_view host) {
  static constexpr std::array<NoiseTemplate, 8> kTemplates = {
      split_template("sshd[%u]: Accepted publickey for user%u from 10.0.%u.%u"),
      split_template("systemd[1]: Started Session %u of user hpcuser%u."),
      split_template("kernel: Lustre: %u:0:(client.c:2114) Skipped %u "
                     "previous similar messages"),
      split_template("slurmd[%u]: launch task StepId=%u.0 request from UID:%u"),
      split_template("kernel: perf: interrupt took too long (%u > %u), "
                     "lowering rate"),
      split_template("ntpd[%u]: adjusting local clock by %u.%us"),
      split_template("kernel: EDAC MC0: 1 CE memory read error on "
                     "CPU_SrcID#0_MC#%u (channel:%u slot:0)"),
      split_template("munged[%u]: Purged %u credentials from replay cache"),
  };
  const NoiseTemplate& tmpl = kTemplates[rng.uniform_u64(kTemplates.size())];
  // Every line draws all four field values, last field first, whatever its
  // template uses: the draw order is part of the dataset's bytes.
  std::array<std::uint64_t, 4> fields{};
  fields[3] = rng.uniform_u64(250);
  fields[2] = rng.uniform_u64(250);
  fields[1] = rng.uniform_u64(900) + 10;
  fields[0] = rng.uniform_u64(30000) + 1000;
  append_header(out, t, host);
  for (std::size_t i = 0; i < tmpl.fields; ++i) {
    out += tmpl.spans[i];
    common::append_uint(out, fields[i]);
  }
  out += tmpl.spans[tmpl.fields];
}

std::string render_xid_line(common::TimePoint t, std::string_view host,
                            std::string_view pci_bus, xid::Code code,
                            std::string_view detail) {
  std::string s;
  append_xid_line(s, t, host, pci_bus, code, detail);
  return s;
}

std::string render_drain_line(common::TimePoint t, std::string_view host,
                              std::string_view reason) {
  std::string s;
  append_drain_line(s, t, host, reason);
  return s;
}

std::string render_resume_line(common::TimePoint t, std::string_view host) {
  std::string s;
  append_resume_line(s, t, host);
  return s;
}

std::string render_noise_line(common::Rng& rng, common::TimePoint t,
                              std::string_view host) {
  std::string s;
  append_noise_line(s, rng, t, host);
  return s;
}

}  // namespace gpures::logsys
