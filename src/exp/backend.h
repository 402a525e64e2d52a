// Backend selection: the same fully-specified scenario cell can run on
// the discrete-event simulator (exact, O(events)) or the mean-field fluid
// backend (analytic, O(steps), independent of N). Sweeps mix backends per
// cell; cross-validation at overlapping N quantifies the fluid backend's
// extrapolation error (tests/core/fluid_crossval_test.cpp, DESIGN §12).
#pragma once

#include <string>
#include <vector>

#include "core/fluid_model.h"
#include "exp/supervise.h"
#include "metrics/report.h"
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

/// Projects a fluid report onto the RunReport shape so mixed-backend
/// sweeps collect into one table: populations and completed fraction map
/// directly, completion_summary carries the mean completion time (count =
/// rounded completions; spread fields are zero -- the fluid limit has no
/// per-peer variance), and goodput_ratio maps from the flow accounting.
/// Per-peer lists and fairness series stay empty.
metrics::RunReport fluid_as_run_report(const core::FluidReport& fluid);

/// Runs every cell with a per-cell backend choice and returns one outcome
/// per cell, in input order: `backends[i]` decides the engine for
/// `cells[i]` (one entry may be broadcast to every cell; an empty vector
/// means all-event). Event cells run through run_supervised_cell with the
/// default (untriggered) Supervision and fluid cells are folded into the
/// same CellOutcome shape, so a mixed sweep has run_cells' contract: a
/// failing cell is quarantined, `timing` is filled for every sweep, and
/// reports() returns the reports or throws with the degradation summary.
/// Cells fan out through for_each_cell, so `jobs = N` output stays
/// bit-identical to `jobs = 1`.
SweepResult run_cells_mixed(const std::vector<sim::SwarmConfig>& cells,
                            const std::vector<Backend>& backends,
                            std::size_t jobs);

}  // namespace coopnet::exp
