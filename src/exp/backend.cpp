#include "exp/backend.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "metrics/json.h"

namespace coopnet::exp {

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kEvent:
      return "event";
    case Backend::kFluid:
      return "fluid";
  }
  throw std::invalid_argument("to_string: unknown backend");
}

Backend backend_from_string(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "event") return Backend::kEvent;
  if (lower == "fluid") return Backend::kFluid;
  throw std::invalid_argument("unknown backend '" + name +
                              "' (expected event or fluid)");
}

namespace {

// Schema keys a fluid run accepts: the fields fluid_spec_from reads (keep
// in step with it), plus two it has no use for but a fluid command line
// may still set, so one scenario's flags drive both backends -- the seed
// (the fluid run is deterministic) and the piece size (the model is
// piece-free).
constexpr std::string_view kFluidKeys[] = {
    "algorithm",
    "n_peers",
    "free_rider_fraction",
    "capacity_classes",
    "seeder_capacity",
    "seeder_count",
    "file_bytes",
    "arrivals",
    "flash_crowd_window",
    "arrival_rate",
    "fault_transfer_loss_rate",
    "fault_churn_rate",
    "fault_rejoin_probability",
    "fault_mean_downtime",
    "linger_time",
    "alpha_r",
    "n_bt",
    "upload_slots",
    "max_time",
    "seed",
    "piece_bytes",
};

}  // namespace

std::vector<std::string> fluid_unmodelled_flags() {
  std::vector<std::string> flags;
  const sim::SwarmConfig config;
  sim::schema::for_each_field(
      config, [&flags](const sim::schema::Field& f, const auto&) {
        if (std::ranges::find(kFluidKeys, f.key) == std::end(kFluidKeys)) {
          flags.emplace_back(f.flag);
        }
      });
  return flags;
}

core::FluidSpec fluid_spec_from(const sim::SwarmConfig& config) {
  config.validate();

  core::FluidSpec spec;
  spec.algorithm = config.algorithm;
  spec.file_bytes = static_cast<double>(config.file_bytes);
  spec.seeder_rate =
      config.seeder_capacity * static_cast<double>(config.seeder_count);

  // Population: each capacity class splits into a compliant and a
  // free-riding portion (the simulator assigns free-rider status
  // independently of the capacity draw, so the mean-field split is
  // proportional). Strategic peers upload the minimum reciprocity
  // requires, which in the fluid limit is full compliance.
  const double n = static_cast<double>(config.n_peers);
  const double f =
      static_cast<double>(config.free_rider_count()) / n;
  for (const auto& cls : config.capacities.classes()) {
    const double count = cls.fraction * n;
    if (count * (1.0 - f) > 0.0) {
      spec.classes.push_back({cls.rate, count * (1.0 - f), true});
    }
    if (count * f > 0.0) {
      spec.classes.push_back({cls.rate, count * f, false});
    }
  }

  switch (config.arrivals) {
    case sim::ArrivalProcess::kFlashCrowd:
      spec.arrivals = core::FluidArrivals::kFlashCrowd;
      spec.flash_window = config.flash_crowd_window;
      break;
    case sim::ArrivalProcess::kPoisson:
    case sim::ArrivalProcess::kStaggered:
      // Both are mean-rate processes in the fluid limit.
      spec.arrivals = core::FluidArrivals::kConstantRate;
      spec.arrival_rate = config.arrival_rate;
      break;
  }

  spec.churn_rate = config.faults.churn_rate;
  spec.rejoin_probability = config.faults.rejoin_probability;
  spec.mean_downtime = config.faults.mean_downtime;
  spec.loss_rate = config.faults.transfer_loss_rate;
  spec.linger_time = config.linger_time;

  spec.model.alpha_r = config.alpha_r;
  spec.model.n_bt = config.n_bt;
  spec.model.seeder_rate = spec.seeder_rate;
  // BitTorrent's altruism share is the optimistic-unchoke fraction of the
  // slot budget (Section V uses n_bt = 4 of 5 slots => alpha_bt = 0.2).
  if (config.upload_slots > 0 && config.n_bt <= config.upload_slots) {
    spec.model.alpha_bt =
        1.0 - static_cast<double>(config.n_bt) /
                  static_cast<double>(config.upload_slots);
  }

  spec.horizon = config.max_time;

  // Stability-aware step: resolve the fastest class's Erlang stage time
  // constant instead of leaning on the 2/dt stage cap (a small file with
  // a fast class would ripple at the default 0.25 s step).
  // Deterministic: derived from the config alone.
  spec.dt = core::fluid_stable_dt(spec);
  return spec;
}

core::FluidReport run_fluid_scenario(const sim::SwarmConfig& config) {
  return core::fluid_run(fluid_spec_from(config));
}

metrics::RunReport fluid_as_run_report(const core::FluidReport& fluid) {
  metrics::RunReport report;
  report.algorithm = fluid.algorithm;
  report.compliant_population =
      static_cast<std::size_t>(std::llround(fluid.compliant_population));
  report.freerider_population =
      static_cast<std::size_t>(std::llround(fluid.freerider_population));
  report.sim_end_time = fluid.end_time;
  report.completed_fraction = fluid.completed_fraction;
  report.completion_summary.count =
      static_cast<std::size_t>(std::llround(fluid.completed_compliant));
  report.completion_summary.mean = fluid.mean_completion_time;
  report.completion_summary.median = fluid.mean_completion_time;
  report.completion_summary.min = fluid.mean_completion_time;
  report.completion_summary.max = fluid.mean_completion_time;
  report.completion_summary.p25 = fluid.mean_completion_time;
  report.completion_summary.p75 = fluid.mean_completion_time;
  report.completion_summary.p90 = fluid.mean_completion_time;
  report.completion_summary.p99 = fluid.mean_completion_time;
  // Everyone active at t = 0+ is "bootstrapped" in the fluid limit (the
  // model has no piece-level cold start).
  report.bootstrapped_fraction = fluid.completed > 0.0 ? 1.0 : 0.0;
  report.goodput_ratio = fluid.goodput_ratio;
  report.faults.offered_bytes =
      static_cast<sim::Bytes>(std::llround(fluid.offered_bytes));
  report.faults.goodput_bytes =
      static_cast<sim::Bytes>(std::llround(fluid.goodput_bytes));
  return report;
}

namespace {

// The fluid counterpart of run_supervised_cell: a fluid cell either
// yields its projected report or is quarantined with the exception text.
CellOutcome run_fluid_cell(std::size_t index,
                           const sim::SwarmConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  CellOutcome out;
  out.index = index;
  out.seed = config.seed;
  out.algorithm = core::to_string(config.algorithm);
  try {
    out.report = fluid_as_run_report(run_fluid_scenario(config));
    out.report_json = metrics::to_json(out.report);
    out.has_report = true;
    out.status = CellOutcome::Status::kOk;
  } catch (const std::exception& e) {
    out.status = CellOutcome::Status::kFailed;
    out.error = e.what();
  }
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return out;
}

}  // namespace

SweepResult run_cells_mixed(const std::vector<sim::SwarmConfig>& cells,
                            const std::vector<Backend>& backends,
                            std::size_t jobs) {
  if (backends.size() > 1 && backends.size() != cells.size()) {
    throw std::invalid_argument(
        "run_cells_mixed: backends must be empty, one (broadcast), or "
        "one per cell");
  }
  const auto fluid = [&backends](std::size_t i) {
    return !backends.empty() &&
           backends[backends.size() == 1 ? 0 : i] == Backend::kFluid;
  };
  if (jobs == 0) jobs = default_jobs();
  const auto start = std::chrono::steady_clock::now();
  SweepResult result;
  result.outcomes.resize(cells.size());
  for_each_cell(cells.size(), jobs, [&](std::size_t i) {
    result.outcomes[i] = fluid(i) ? run_fluid_cell(i, cells[i])
                                  : run_supervised_cell(i, cells[i], {});
  });
  result.tally_timing(jobs, start);
  return result;
}

}  // namespace coopnet::exp
