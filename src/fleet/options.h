// Fleet CLI surface shared by the sweep binaries: role selection and the
// robustness knobs, parsed from the same util::Cli the supervised-sweep
// flags come from.
//
//   --fleet-listen [HOST:]PORT    run this process as the coordinator
//   --fleet-connect HOST:PORT     run this process as a worker
//   --fleet-name NAME             worker name for logs (default "worker")
//   --lease-cells N               cells per lease (default 4)
//   --lease-timeout S             lease/heartbeat expiry (default 30)
//   --heartbeat S                 worker ping cadence (default 2)
//   --max-cell-attempts N         leases before a cell is quarantined
//
// The coordinator role additionally requires --journal (its crash-
// recovery log; restart with --resume to pick a partial fleet sweep back
// up). Workers take the regular supervision flags (--cell-timeout,
// --event-budget) for per-cell quarantine, exactly like a local sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/lease.h"
#include "util/backoff.h"
#include "util/cli.h"

namespace coopnet::fleet {

struct FleetControl {
  enum class Role { kNone, kCoordinator, kWorker };

  Role role = Role::kNone;
  /// Coordinator: bind host; worker: coordinator host.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Worker display name (no spaces; appears in coordinator logs).
  std::string worker_name = "worker";
  /// Lease granting/expiry knobs (coordinator side).
  LeaseConfig lease;
  /// Worker heartbeat cadence, echoed to workers in WELCOME. Must be
  /// well under lease.lease_duration or leases expire between pings.
  double heartbeat_interval = 2.0;
  /// Worker reconnect pacing and give-up bound.
  util::Backoff reconnect{0.2, 2.0, 5.0};
  int max_connect_attempts = 40;

  bool coordinator() const { return role == Role::kCoordinator; }
  bool worker() const { return role == Role::kWorker; }
  bool active() const { return role != Role::kNone; }

  /// Throws std::invalid_argument on inconsistent knobs.
  void validate() const;
};

/// Parses the fleet flags; throws std::invalid_argument with an
/// actionable message on conflicts (both roles at once, malformed
/// endpoints, heartbeat slower than the lease).
FleetControl fleet_control_from_cli(const util::Cli& cli);

/// The flags fleet_control_from_cli reads, for util::Cli::declare.
std::vector<util::CliFlag> fleet_flags();

}  // namespace coopnet::fleet
