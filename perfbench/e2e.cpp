// perfbench_e2e: the untraced end-to-end benchmark of one workload.
//
//   perfbench_e2e --workload mech_sweep|bt_scale|ckpt_churn [--seed N]
//                 [--seconds S] [--size full|tiny]
//                 [--inject corrupt-snapshot|digest-mismatch]
//
// Repeats the workload until --seconds of measurement have passed (at
// least twice, so every digest is compared at least once), then prints the
// per-repetition medians as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 whenever that line was printed, including when checks failed.
#include <cstdio>
#include <exception>

#include "workloads.h"

namespace {

using namespace perfbench;

/// Extra set-up-only samples taken after each repetition, so setup_s is a
/// median of many constructions rather than of a handful of reps.
int extra_setup_samples(const Options& o) {
  if (o.workload == "bt_scale") return 1;
  return 4;
}

/// One set-up sample: the workload's full set of constructions.
double setup_sample(const Options& o) {
  if (o.workload == "ckpt_churn") {
    return time_setup(ckpt_churn_config(o.seed, o.size));
  }
  double total = 0.0;
  for (const sim::SwarmConfig& config : plain_cells(o)) {
    total += time_setup(config);
  }
  return total;
}

int run(const Options& o) {
  print_header(o, "perfbench_e2e");
  Checks checks(o.inject == "digest-mismatch");
  const bool churn = o.workload == "ckpt_churn";
  ChurnReference ref;
  if (churn) ref = churn_warmup(o, checks);

  std::vector<double> wall, cpu, setup, run_s, eps;
  const double start = wall_now();
  int reps = 0;
  while (reps < 2 || wall_now() - start < o.seconds) {
    const Rep rep = churn ? run_churn_rep(o, ref, checks)
                          : run_plain_rep(o, checks);
    ++reps;
    std::printf("# rep %d wall_s=%.6f cpu_s=%.6f run_s=%.6f resume_s=%.6f\n",
                reps, rep.wall_s, rep.cpu_s, rep.run_s, rep.resume_s);
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
    run_s.push_back(rep.run_s);
    eps.push_back(ratio(static_cast<double>(rep.events), rep.run_s));
    if (!churn) setup.push_back(rep.setup_s);
    for (int i = 0; i < extra_setup_samples(o); ++i) {
      setup.push_back(setup_sample(o));
    }
  }

  print_result(checks,
               {{"wall_s", median(wall), "s"},
                {"setup_s", median(setup), "s"},
                {"run_s", median(run_s), "s"},
                {"events_per_s", median(eps), "1/s"},
                {"cpu_s", median(cpu), "s"},
                {"peak_rss_mb", proc_counters().peak_rss_mb, "MB"}},
               reps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
}
