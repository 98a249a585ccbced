// Syslog-format rendering for the raw artifacts the pipeline ingests.
//
// The cluster's raw log is classic RFC3164-style text.  XID errors use the
// NVIDIA kernel-driver format the paper's Stage-I regex targets:
//
//   May  5 07:23:01 gpua042 kernel: NVRM: Xid (PCI:0000:27:00): 95,
//       pid=12345, Uncontained ECC error ...
//
// Node lifecycle events (drain / resume) come from slurmctld and are used by
// the availability analysis; everything else is noise the Stage-I filter
// must reject.
//
// Each line has two forms: an append_* variant that renders straight into a
// caller-owned buffer (the DayBuffer arena — the zero-allocation hot path)
// and a render_* wrapper returning a fresh std::string for tests and small
// fixtures.  The wrappers delegate to the appenders, so the two paths are
// byte-identical by construction.
#pragma once

#include <string>
#include <string_view>

#include "common/rng.h"
#include "common/time.h"
#include "xid/xid.h"

namespace gpures::logsys {

/// Append a kernel NVRM XID line to `out`.
void append_xid_line(std::string& out, common::TimePoint t,
                     std::string_view host, std::string_view pci_bus,
                     xid::Code code, std::string_view detail);

/// Append the slurmctld drain line the SRE health checks produce.
void append_drain_line(std::string& out, common::TimePoint t,
                       std::string_view host,
                       std::string_view reason = "gpu_health_check_failed");

/// Append the slurmctld resume (return-to-service) line.
void append_resume_line(std::string& out, common::TimePoint t,
                        std::string_view host);

/// Append a realistic non-XID noise line (sshd, lustre, systemd, ...).
/// Draws the template, then four field values, from `rng` in a fixed order,
/// so one seed renders the same lines under every compiler.
void append_noise_line(std::string& out, common::Rng& rng, common::TimePoint t,
                       std::string_view host);

/// Render a kernel NVRM XID line.
std::string render_xid_line(common::TimePoint t, std::string_view host,
                            std::string_view pci_bus, xid::Code code,
                            std::string_view detail);

/// Render the slurmctld drain line the SRE health checks produce.
std::string render_drain_line(common::TimePoint t, std::string_view host,
                              std::string_view reason = "gpu_health_check_failed");

/// Render the slurmctld resume (return-to-service) line.
std::string render_resume_line(common::TimePoint t, std::string_view host);

/// Render a realistic non-XID noise line (sshd, lustre, systemd, ...).
std::string render_noise_line(common::Rng& rng, common::TimePoint t,
                              std::string_view host);

}  // namespace gpures::logsys
