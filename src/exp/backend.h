// Backend selection: the same fully-specified scenario cell can run on
// the discrete-event simulator (exact, O(events)) or the mean-field fluid
// backend (analytic, O(steps), independent of N). Cross-validation at
// overlapping N quantifies the fluid backend's extrapolation error
// (tests/core/fluid_crossval_test.cpp, DESIGN §12).
#pragma once

#include <string>
#include <vector>

#include "core/fluid_model.h"
#include "sim/config.h"

namespace coopnet::exp {

/// Which engine computes a cell.
enum class Backend {
  kEvent,  // discrete-event simulator (sim::Swarm)
  kFluid,  // mean-field population ODE (core::fluid_run)
};

/// "event" or "fluid".
std::string to_string(Backend backend);

/// Parses to_string's names (case-insensitive); throws
/// std::invalid_argument on anything else.
Backend backend_from_string(const std::string& name);

/// Derives the fluid scenario from the exact SwarmConfig the event
/// simulator would run: capacity classes are split into compliant and
/// free-riding portions, BitTorrent's altruism share is derived from the
/// slot split (1 - n_bt / upload_slots), and churn/loss/linger map onto
/// the ODE's flow knobs. Strategic (BitTyrant-style) peers are treated as
/// compliant -- the fluid model has no probing dynamics; cells that need
/// them must use the event backend.
core::FluidSpec fluid_spec_from(const sim::SwarmConfig& config);

/// CLI flags of the config schema rows (sim::schema) whose fields
/// fluid_spec_from does not read, in schema order. A fluid run given one
/// of them would silently ignore it.
std::vector<std::string> fluid_unmodelled_flags();

/// Runs one cell on the fluid backend (fluid_spec_from + fluid_run).
core::FluidReport run_fluid_scenario(const sim::SwarmConfig& config);

}  // namespace coopnet::exp
