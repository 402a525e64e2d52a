#include "metrics/report.h"

#include <sstream>

namespace coopnet::metrics {

RunReport build_report(const sim::Swarm& swarm, const RunMetrics& metrics) {
  RunReport r;
  r.algorithm = swarm.config().algorithm;
  r.compliant_population = metrics.compliant_population();
  r.freerider_population = metrics.freerider_population();
  r.strategic_population = metrics.strategic_population();
  r.sim_end_time = swarm.engine().now();

  double compliant_ratio = 0.0, strategic_ratio = 0.0;
  std::size_t compliant_n = 0, strategic_n = 0;
  for (sim::ConstPeer p : swarm.peers()) {
    const double ratio = p.fairness_ratio();
    if (ratio < 0.0) continue;
    if (p.kind() == sim::PeerKind::kCompliant) {
      compliant_ratio += ratio;
      ++compliant_n;
    } else if (p.is_strategic()) {
      strategic_ratio += ratio;
      ++strategic_n;
    }
  }
  if (compliant_n > 0) {
    r.compliant_mean_ratio =
        compliant_ratio / static_cast<double>(compliant_n);
  }
  if (strategic_n > 0) {
    r.strategic_mean_ratio =
        strategic_ratio / static_cast<double>(strategic_n);
  }

  r.completion_times = metrics.completion_times();
  r.completion_summary = util::summarize(r.completion_times);
  r.completed_fraction =
      r.compliant_population == 0
          ? 0.0
          : static_cast<double>(r.completion_times.size()) /
                static_cast<double>(r.compliant_population);

  r.bootstrap_times = metrics.bootstrap_times();
  r.bootstrap_summary = util::summarize(r.bootstrap_times);
  r.bootstrapped_fraction =
      r.compliant_population == 0
          ? 0.0
          : static_cast<double>(r.bootstrap_times.size()) /
                static_cast<double>(r.compliant_population);

  r.fairness_series = metrics.fairness_series();
  if (!r.fairness_series.empty()) {
    r.settled_fairness = r.fairness_series.tail_mean(0.25);
  }
  r.final_fairness_F = current_fairness_F(swarm);

  std::vector<double> rates;
  for (sim::ConstPeer p : swarm.peers()) {
    if (p.kind() != sim::PeerKind::kCompliant || !p.finished()) continue;
    const double span = p.finish_time() - p.arrival_time();
    if (span > 0.0) {
      rates.push_back(static_cast<double>(p.downloaded_usable_bytes()) /
                      span);
    }
  }
  if (!rates.empty()) r.download_rate_jain = util::jain_index(rates);

  r.susceptibility_series = metrics.susceptibility_series();
  r.susceptibility = current_susceptibility(swarm);

  r.total_uploaded_bytes = swarm.total_uploaded_bytes();
  r.total_downloaded_raw_bytes =
      swarm.peer_store().byte_totals().downloaded_raw;

  r.faults = swarm.fault_stats();
  r.goodput_ratio = r.faults.goodput_ratio();
  return r;
}

std::string summarize_report(const RunReport& r) {
  std::ostringstream os;
  os << core::to_string(r.algorithm) << ": " << r.completion_times.size()
     << "/" << r.compliant_population << " compliant peers finished";
  if (!r.completion_times.empty()) {
    os << " (mean " << r.completion_summary.mean << " s, median "
       << r.completion_summary.median << " s)";
  }
  os << "; bootstrap mean ";
  if (r.bootstrap_times.empty()) {
    os << "n/a";
  } else {
    os << r.bootstrap_summary.mean << " s";
  }
  os << "; settled fairness ";
  if (r.settled_fairness < 0.0) {
    os << "n/a";
  } else {
    os << r.settled_fairness;
  }
  if (r.freerider_population > 0) {
    os << "; susceptibility " << r.susceptibility * 100.0 << "%";
  }
  if (r.faults.transfer_failures + r.faults.transfer_stalls +
          r.faults.churn_departures + r.faults.seeder_outages >
      0) {
    os << "; faults: " << r.faults.transfer_failures << " lost, "
       << r.faults.transfer_stalls << " stalled, "
       << r.faults.retries_scheduled << " retries ("
       << r.faults.transfers_abandoned << " abandoned), "
       << r.faults.churn_departures << " departures ("
       << r.faults.churn_rejoins << " rejoined), goodput "
       << r.goodput_ratio * 100.0 << "%";
  }
  return os.str();
}

std::vector<util::CdfPoint> completion_cdf(const RunReport& r) {
  return util::empirical_cdf(r.completion_times, r.compliant_population);
}

std::vector<util::CdfPoint> bootstrap_cdf(const RunReport& r) {
  return util::empirical_cdf(r.bootstrap_times, r.compliant_population);
}

}  // namespace coopnet::metrics
