#include "exp/replication.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "exp/schedule.h"
#include "util/stats.h"

namespace coopnet::exp {

std::string MetricEstimate::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << mean << " +/- " << ci95_half_width;
  return os.str();
}

MetricEstimate estimate(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("estimate: no samples");
  util::OnlineStats acc;
  for (double x : samples) acc.add(x);
  MetricEstimate e;
  e.samples = samples.size();
  e.mean = acc.mean();
  e.stddev = acc.stddev();
  e.ci95_half_width =
      samples.size() < 2
          ? 0.0
          : util::t_critical_975(e.samples - 1) * e.stddev /
                std::sqrt(static_cast<double>(e.samples));
  return e;
}

std::vector<sim::SwarmConfig> replication_cells(const sim::SwarmConfig& config,
                                                std::size_t replications,
                                                std::uint64_t seed0) {
  std::vector<sim::SwarmConfig> cells(replications, config);
  for (std::size_t r = 0; r < replications; ++r) {
    cells[r].seed = cell_seed(seed0, r);
  }
  return cells;
}

namespace {

/// Fills the per-metric estimates of `out` from out.runs.
void fill_estimates(ReplicatedReport& out) {
  std::vector<double> mean_c, median_c, frac_c, boot, fair, fair_f, susc;
  for (const auto& report : out.runs) {
    if (!report.completion_times.empty()) {
      mean_c.push_back(report.completion_summary.mean);
      median_c.push_back(report.completion_summary.median);
    }
    frac_c.push_back(report.completed_fraction);
    if (!report.bootstrap_times.empty()) {
      boot.push_back(report.bootstrap_summary.median);
    }
    if (report.settled_fairness >= 0.0) {
      fair.push_back(report.settled_fairness);
    }
    if (report.final_fairness_F >= 0.0) {
      fair_f.push_back(report.final_fairness_F);
    }
    susc.push_back(report.susceptibility);
  }
  auto maybe = [](const std::vector<double>& v) {
    return v.empty() ? MetricEstimate{} : estimate(v);
  };
  out.mean_completion = maybe(mean_c);
  out.median_completion = maybe(median_c);
  out.completed_fraction = maybe(frac_c);
  out.median_bootstrap = maybe(boot);
  out.settled_fairness = maybe(fair);
  out.fairness_F = maybe(fair_f);
  out.susceptibility = maybe(susc);
}

}  // namespace

ReplicatedReport run_replicated(const sim::SwarmConfig& config,
                                std::size_t replications,
                                std::uint64_t seed0, std::size_t jobs,
                                const Supervision& supervision,
                                RunJournal* journal,
                                const JournalIndex* resume,
                                const CheckpointPolicy& checkpoint) {
  if (replications < 1) {
    throw std::invalid_argument("run_replicated: replications < 1");
  }
  ReplicatedReport out;
  out.algorithm = config.algorithm;
  out.replications = replications;
  out.sweep = run_cells(replication_cells(config, replications, seed0), jobs,
                        supervision, journal, resume, checkpoint);
  out.runs = out.sweep.ok_reports();
  fill_estimates(out);
  return out;
}

}  // namespace coopnet::exp
