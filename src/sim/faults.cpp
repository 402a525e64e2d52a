#include "sim/faults.h"

#include "util/backoff.h"

namespace coopnet::sim {

Seconds FaultConfig::backoff_for(int attempt) const {
  // The shared capped-exponential schedule (util::Backoff) with this
  // config's retry knobs; fleet reconnect/reassignment uses the same
  // curve.
  return util::Backoff{retry_backoff, retry_backoff_factor,
                       retry_backoff_cap}
      .delay_for(attempt);
}

FaultConfig lossy_faults(double loss_rate) {
  FaultConfig f;
  f.transfer_loss_rate = loss_rate;
  return f;
}

FaultConfig moderate_churn() {
  FaultConfig f;
  // Mean session ~500 s against the small-scenario ~200-400 s downloads:
  // a sizeable minority of peers churn at least once.
  f.churn_rate = 1.0 / 500.0;
  f.rejoin_probability = 0.9;
  f.mean_downtime = 30.0;
  return f;
}

FaultConfig heavy_churn() {
  FaultConfig f;
  // Mean session ~120 s: most peers churn, some repeatedly, and one in
  // four departures is permanent.
  f.churn_rate = 1.0 / 120.0;
  f.rejoin_probability = 0.75;
  f.mean_downtime = 60.0;
  return f;
}

}  // namespace coopnet::sim
