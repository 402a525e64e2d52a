#include "metrics/run_metrics.h"

#include <cmath>
#include <stdexcept>

#include "sim/event_kinds.h"
#include "util/byteio.h"

namespace coopnet::metrics {

RunMetrics::RunMetrics(double sample_interval)
    : sample_interval_(sample_interval) {
  if (sample_interval <= 0.0) {
    throw std::invalid_argument("RunMetrics: sample_interval <= 0");
  }
}

void RunMetrics::register_with(sim::Swarm& swarm) {
  if (installed_) throw std::logic_error("RunMetrics: already installed");
  installed_ = true;
  swarm.set_observer(this);
  for (sim::ConstPeer p : swarm.peers()) {
    if (p.kind() == sim::PeerKind::kCompliant) ++compliant_population_;
    if (p.is_free_rider()) ++freerider_population_;
    if (p.is_strategic()) ++strategic_population_;
  }
  timer_ = swarm.add_timer([this, &swarm] { sample(swarm); });
}

void RunMetrics::install(sim::Swarm& swarm) {
  register_with(swarm);
  swarm.engine().schedule(sample_interval_,
                          sim::make_timer_tag(sim::kEvExternalTimer, timer_));
}

void RunMetrics::install_restored(sim::Swarm& swarm) { register_with(swarm); }

void RunMetrics::sample(sim::Swarm& swarm) {
  const double f = current_fairness(swarm);
  if (f >= 0.0) fairness_.add(swarm.engine().now(), f);
  susceptibility_.add(swarm.engine().now(), current_susceptibility(swarm));
  if (swarm.engine().now() + sample_interval_ <= swarm.config().max_time) {
    swarm.engine().schedule(sample_interval_,
                            sim::make_timer_tag(sim::kEvExternalTimer, timer_));
  }
}

namespace {

void save_series(util::ByteSink& sink, const util::TimeSeries& series) {
  sink.put_u64(series.size());
  for (const util::TimePoint& pt : series.points()) {
    sink.put_double(pt.time);
    sink.put_double(pt.value);
  }
}

void load_series(util::ByteSource& src, util::TimeSeries& series,
                 const char* name) {
  util::TimeSeries fresh{name};
  const std::size_t n = src.get_count(16);
  for (std::size_t i = 0; i < n; ++i) {
    const double time = src.get_double();
    const double value = src.get_double();
    fresh.add(time, value);  // add() revalidates the time ordering
  }
  series = std::move(fresh);
}

}  // namespace

void RunMetrics::checkpoint_save(util::ByteSink& sink) const {
  sink.put_u64(completion_.size());
  for (const double t : completion_) sink.put_double(t);
  sink.put_u64(bootstrap_.size());
  for (const double t : bootstrap_) sink.put_double(t);
  save_series(sink, fairness_);
  save_series(sink, susceptibility_);
}

void RunMetrics::checkpoint_load(util::ByteSource& src) {
  const std::size_t n_completion = src.get_count(8);
  completion_.resize(n_completion);
  for (double& t : completion_) t = src.get_double();
  const std::size_t n_bootstrap = src.get_count(8);
  bootstrap_.resize(n_bootstrap);
  for (double& t : bootstrap_) t = src.get_double();
  load_series(src, fairness_, "fairness");
  load_series(src, susceptibility_, "susceptibility");
}

void RunMetrics::on_bootstrap(const sim::Swarm& swarm,
                              sim::ConstPeer peer) {
  if (peer.kind() != sim::PeerKind::kCompliant) return;
  bootstrap_.push_back(swarm.engine().now() - peer.arrival_time());
}

void RunMetrics::on_finish(const sim::Swarm& swarm, sim::ConstPeer peer) {
  if (peer.kind() != sim::PeerKind::kCompliant) return;
  completion_.push_back(swarm.engine().now() - peer.arrival_time());
}

double current_fairness(const sim::Swarm& swarm) {
  double total = 0.0;
  std::size_t n = 0;
  for (sim::ConstPeer p : swarm.peers()) {
    if (p.kind() != sim::PeerKind::kCompliant) continue;
    if (p.state() == sim::PeerState::kPending) continue;
    const double ratio = p.fairness_ratio();
    if (ratio < 0.0) continue;
    total += ratio;
    ++n;
  }
  return n == 0 ? -1.0 : total / static_cast<double>(n);
}

double current_fairness_F(const sim::Swarm& swarm) {
  double total = 0.0;
  std::size_t n = 0;
  for (sim::ConstPeer p : swarm.peers()) {
    if (p.kind() != sim::PeerKind::kCompliant) continue;
    if (p.state() == sim::PeerState::kPending) continue;
    if (p.uploaded_bytes() <= 0 || p.downloaded_usable_bytes() <= 0) continue;
    total += std::fabs(std::log(
        static_cast<double>(p.downloaded_usable_bytes()) /
        static_cast<double>(p.uploaded_bytes())));
    ++n;
  }
  return n == 0 ? -1.0 : total / static_cast<double>(n);
}

double current_susceptibility(const sim::Swarm& swarm) {
  const auto uploaded = swarm.leecher_uploaded_bytes();
  if (uploaded <= 0) return 0.0;
  return static_cast<double>(swarm.freerider_usable_bytes()) /
         static_cast<double>(uploaded);
}

}  // namespace coopnet::metrics
