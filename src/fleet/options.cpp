#include "fleet/options.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/parse.h"

namespace coopnet::fleet {

namespace {

/// "PORT" or "HOST:PORT" -> (host?, port). Throws on malformed input.
void parse_endpoint(const std::string& spec, const std::string& flag,
                    std::string* host, std::uint16_t* port,
                    bool port_only_ok) {
  std::string port_str = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    *host = spec.substr(0, colon);
    port_str = spec.substr(colon + 1);
    if (host->empty()) {
      throw std::invalid_argument(flag + ": empty host in \"" + spec +
                                  "\" (use HOST:PORT)");
    }
  } else if (!port_only_ok) {
    throw std::invalid_argument(flag + ": expected HOST:PORT (got \"" +
                                spec + "\")");
  }
  // std::stoi alone accepts a numeric prefix ("8080junk" -> 8080);
  // require an all-digit token, like parse_u64_token in the protocol.
  if (port_str.empty() ||
      port_str.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(flag + ": \"" + port_str +
                                "\" is not a port number (0-65535)");
  }
  try {
    const int v = std::stoi(port_str);
    if (v > 65535) throw std::out_of_range("port");
    *port = static_cast<std::uint16_t>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + ": \"" + port_str +
                                "\" is not a port number (0-65535)");
  }
}

}  // namespace

void FleetControl::validate() const {
  if (!active()) return;
  lease.validate();
  reconnect.validate();
  if (!std::isfinite(heartbeat_interval) || heartbeat_interval <= 0.0) {
    throw std::invalid_argument(
        "--heartbeat must be a finite number of seconds > 0");
  }
  if (heartbeat_interval * 2.0 > lease.lease_duration) {
    throw std::invalid_argument(
        "--heartbeat must be at most half of --lease-timeout (" +
        std::to_string(heartbeat_interval) + " s vs " +
        std::to_string(lease.lease_duration) +
        " s): a lease must survive at least one missed ping or every "
        "slow cell triggers a spurious reassignment");
  }
  if (max_connect_attempts < 1) {
    throw std::invalid_argument("fleet: max_connect_attempts must be >= 1");
  }
  if (worker_name.empty() ||
      worker_name.find_first_of(" \t\n") != std::string::npos) {
    throw std::invalid_argument(
        "--fleet-name must be non-empty and contain no whitespace (it "
        "travels in a space-separated protocol frame)");
  }
}

std::vector<util::CliFlag> fleet_flags() {
  const FleetControl d;
  return {
      {"fleet", "fleet-listen", "[HOST:]PORT",
       "run as the fleet coordinator (requires --journal; port 0 picks an "
       "ephemeral port)"},
      {"fleet", "fleet-connect", "HOST:PORT",
       "run as a fleet worker for the coordinator at HOST:PORT, with the "
       "coordinator's sweep flags"},
      {"fleet", "fleet-name", "NAME",
       "worker name for logs (default " + d.worker_name + ")"},
      {"fleet", "lease-cells", "N",
       "cells per lease (default " +
           std::to_string(d.lease.cells_per_lease) + ")"},
      {"fleet", "lease-timeout", "S",
       "lease/heartbeat expiry, seconds (default " +
           util::shortest(d.lease.lease_duration) + ")"},
      {"fleet", "heartbeat", "S",
       "worker ping cadence, seconds (default " +
           util::shortest(d.heartbeat_interval) + ")"},
      {"fleet", "max-cell-attempts", "N",
       "leases before a cell is quarantined (default " +
           std::to_string(d.lease.max_attempts) + ")"},
  };
}

FleetControl fleet_control_from_cli(const util::Cli& cli) {
  FleetControl control;
  const bool listen = cli.has("fleet-listen");
  const bool connect = cli.has("fleet-connect");
  if (listen && connect) {
    throw std::invalid_argument(
        "--fleet-listen and --fleet-connect are mutually exclusive: one "
        "process is either the coordinator or a worker");
  }
  if (listen) {
    control.role = FleetControl::Role::kCoordinator;
    const std::string spec = cli.get_string("fleet-listen", "");
    if (spec.empty()) {
      throw std::invalid_argument(
          "--fleet-listen needs a port (PORT or HOST:PORT; port 0 picks "
          "an ephemeral port)");
    }
    parse_endpoint(spec, "--fleet-listen", &control.host, &control.port,
                   /*port_only_ok=*/true);
  } else if (connect) {
    control.role = FleetControl::Role::kWorker;
    const std::string spec = cli.get_string("fleet-connect", "");
    if (spec.empty()) {
      throw std::invalid_argument(
          "--fleet-connect needs the coordinator endpoint (HOST:PORT)");
    }
    parse_endpoint(spec, "--fleet-connect", &control.host, &control.port,
                   /*port_only_ok=*/false);
  }

  control.worker_name = cli.get_string("fleet-name", control.worker_name);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  control.lease.cells_per_lease =
      cli.get_count("lease-cells", control.lease.cells_per_lease,
                    std::numeric_limits<std::size_t>::max());
  control.lease.lease_duration = cli.get_double_in(
      "lease-timeout", control.lease.lease_duration, 0.0, kInf);
  control.lease.max_attempts = static_cast<int>(
      cli.get_count("max-cell-attempts",
                    static_cast<std::size_t>(control.lease.max_attempts),
                    std::numeric_limits<int>::max()));
  control.heartbeat_interval =
      cli.get_double_in("heartbeat", control.heartbeat_interval, 0.0, kInf);

  control.validate();
  return control;
}

}  // namespace coopnet::fleet
