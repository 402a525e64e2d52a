// Workloads, clocks, checks and result printing shared by perfbench_e2e and
// perfbench_trace.
//
// Everything here reaches the simulator only through its narrow public
// entry points -- the Swarm constructor and run(), RunMetrics::install,
// metrics::build_report/to_json, and exp::run_supervised_cell with an
// in-memory CheckpointPolicy -- so the end-to-end program keeps building
// while the layers underneath are rewritten. perfbench/README.md documents
// the workloads and every metric.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/supervise.h"
#include "metrics/json.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "sim/config.h"
#include "sim/faults.h"
#include "sim/swarm.h"
#include "strategy/factory.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using namespace coopnet;

// --- command line -----------------------------------------------------------

/// `tiny` shrinks every workload to a sub-second smoke size for the
/// benchmark's self-test; timings at that size mean nothing.
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  Size size = Size::kFull;
  /// Self-test fault injection: "corrupt-snapshot" flips a byte of the
  /// resume snapshot, "digest-mismatch" perturbs the reference digests.
  /// Both must surface as failed operations, never as a crash.
  std::string inject;
  /// perfbench_trace only: where to write the recorded spans.
  std::string spans_out;
};

inline Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--size must be full or tiny");
      }
      o.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--inject") {
      if (value != "corrupt-snapshot" && value != "digest-mismatch") {
        throw std::invalid_argument("unknown --inject " + value);
      }
      o.inject = value;
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload != "mech_sweep" && o.workload != "bt_scale" &&
      o.workload != "ckpt_churn") {
    throw std::invalid_argument(
        "--workload must be mech_sweep, bt_scale or ckpt_churn");
  }
  return o;
}

// --- workload configurations ------------------------------------------------

constexpr long long kMB = 1024LL * 1024;

/// mech_sweep: one Figure 4 cell per mechanism -- a 500-leecher flash crowd
/// over a 32 MB file at degree 30, capped at 4000 simulated seconds.
inline sim::SwarmConfig mech_sweep_config(core::Algorithm algo,
                                          std::uint64_t seed, Size size) {
  auto c = sim::SwarmConfig::paper_scale(algo, seed);
  const bool tiny = size == Size::kTiny;
  c.n_peers = tiny ? 40 : 500;
  c.file_bytes = (tiny ? 4 : 32) * kMB;
  c.graph.degree = tiny ? 10 : 30;
  c.max_time = tiny ? 600.0 : 4000.0;
  return c;
}

/// bt_scale: micro_swarm --peers's scale configuration (BitTorrent, 8 MB
/// file, degree 30, 10 s flash crowd, 120 s horizon).
inline sim::SwarmConfig bt_scale_config(std::uint64_t seed, Size size) {
  auto c = sim::SwarmConfig::paper_scale(core::Algorithm::kBitTorrent, seed);
  const bool tiny = size == Size::kTiny;
  c.n_peers = tiny ? 300 : 20000;
  c.file_bytes = 8 * kMB;
  c.graph.degree = 30;
  c.flash_crowd_window = 10.0;
  c.max_time = tiny ? 40.0 : 120.0;
  return c;
}

/// ckpt_churn: FairTorrent under moderate churn with 5% transfer loss.
inline sim::SwarmConfig ckpt_churn_config(std::uint64_t seed, Size size) {
  auto c = sim::SwarmConfig::paper_scale(core::Algorithm::kFairTorrent, seed);
  const bool tiny = size == Size::kTiny;
  c.n_peers = tiny ? 60 : 2000;
  c.file_bytes = (tiny ? 4 : 32) * kMB;
  c.graph.degree = tiny ? 10 : 30;
  c.faults = sim::moderate_churn();
  c.faults.transfer_loss_rate = 0.05;
  // A fixed horizon that ends before the straggler tail (the fastest of
  // seeds 1-12 finished at 265 s): every seed takes the same 47 snapshots,
  // instead of 53-82 that cost the same but cover a near-idle tail.
  c.max_time = tiny ? 4000.0 : 240.0;
  return c;
}

/// Snapshot cadence of ckpt_churn, in simulated seconds.
constexpr double kCheckpointEvery = 5.0;

// --- clocks and process counters ---------------------------------------------

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads), seconds.
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A /proc/self/status field in kB, as MB; 0 when /proc is unavailable.
inline double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Current resident set, MB.
inline double current_rss_mb() { return proc_status_mb("VmRSS"); }

struct ProcCounters {
  double peak_rss_mb = 0.0;
  long nivcsw = 0;  // involuntary context switches
  long minflt = 0;  // minor page faults (first-touch memory)
};

inline ProcCounters proc_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // VmHWM, not ru_maxrss: Linux carries the parent's high-water mark
  // across fork+exec into ru_maxrss, so a launcher bigger than the
  // workload would be measured instead of it.
  return {proc_status_mb("VmHWM"), ru.ru_nivcsw, ru.ru_minflt};
}

// --- statistics ----------------------------------------------------------------

/// Linear-interpolation quantile; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- output checks -------------------------------------------------------------

/// 64-bit FNV-1a, printed as 16 hex digits.
inline std::string digest(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Counts operations and failures. A failed check never aborts the run:
/// it is reported on stderr and counted, so the result line still prints.
class Checks {
 public:
  explicit Checks(bool corrupt_digests) : corrupt_digests_(corrupt_digests) {}

  bool expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
  }

  /// The first digest seen for `key` becomes its reference (printed once);
  /// every later one must equal it. No digest is pinned to a committed
  /// value: a deliberate golden change moves them all consistently.
  bool same_digest(const std::string& key, const std::string& value) {
    auto it = reference_.find(key);
    if (it == reference_.end()) {
      std::string ref = value;
      if (corrupt_digests_) ref[0] = ref[0] == '0' ? '1' : '0';
      reference_.emplace(key, ref);
      std::printf("# digest %s %s\n", key.c_str(), value.c_str());
      return expect(true, key);
    }
    return expect(it->second == value,
                  key + " digest " + value + " != reference " + it->second);
  }

  /// One cell run (a swarm built, run and reported) that must finish ok.
  bool cell(bool ok, const std::string& what) {
    ++cells_;
    if (!expect(ok, what)) ++cells_failed_;
    return ok;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t cells() const { return cells_; }
  std::uint64_t cells_failed() const { return cells_failed_; }

 private:
  bool corrupt_digests_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cells_ = 0;
  std::uint64_t cells_failed_ = 0;
  std::map<std::string, std::string> reference_;
};

// --- result line -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

inline void print_header(const Options& o, const char* program) {
  std::printf("# %s workload=%s seed=%llu seconds=%g size=%s build=%s "
              "compiler=%s\n",
              program, o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.size == Size::kTiny ? "tiny" : "full", PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
}

/// Prints the noise diagnostics line and then the result object as the
/// last line of stdout.
inline void print_result(const Checks& checks, const std::vector<Metric>& metrics,
                         int reps) {
  const ProcCounters pc = proc_counters();
  std::printf("# proc reps=%d nivcsw=%ld minflt=%ld peak_rss_mb=%.3f\n", reps,
              pc.nivcsw, pc.minflt, pc.peak_rss_mb);
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- the untraced workload repetitions ---------------------------------------------

/// One repetition's end-to-end timings. `setup_s` stays 0 on ckpt_churn,
/// whose set-up is sampled by standalone constructions instead.
struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double resume_s = 0.0;
  std::uint64_t events = 0;
};

struct PlainCell {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::string report_json;
};

/// Builds, runs and reports one cell with exactly the calls
/// exp::run_scenario makes, timing set-up and run.
inline PlainCell run_plain_cell(const sim::SwarmConfig& config) {
  PlainCell cell;
  const double t0 = wall_now();
  sim::Swarm swarm(config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics collector;
  collector.install(swarm);
  const double t1 = wall_now();
  swarm.run();
  const double t2 = wall_now();
  cell.report_json = metrics::to_json(metrics::build_report(swarm, collector));
  cell.setup_s = t1 - t0;
  cell.run_s = t2 - t1;
  cell.events = swarm.engine().events_processed();
  return cell;
}

/// Set-up alone (Swarm construction plus metrics install), timed; the
/// swarm is destroyed untimed.
inline double time_setup(const sim::SwarmConfig& config) {
  const double t0 = wall_now();
  auto swarm = std::make_unique<sim::Swarm>(
      config, strategy::make_strategy(config.algorithm));
  metrics::RunMetrics collector;
  collector.install(*swarm);
  const double dt = wall_now() - t0;
  swarm.reset();
  return dt;
}

inline std::string cell_key(const std::string& workload,
                            const sim::SwarmConfig& config) {
  return workload + "/" + core::to_string(config.algorithm);
}

/// The configs of a plain (uncheckpointed) workload, in run order.
inline std::vector<sim::SwarmConfig> plain_cells(const Options& o) {
  std::vector<sim::SwarmConfig> cells;
  if (o.workload == "mech_sweep") {
    for (core::Algorithm a : core::kAllAlgorithms) {
      cells.push_back(mech_sweep_config(a, o.seed, o.size));
    }
  } else if (o.workload == "bt_scale") {
    cells.push_back(bt_scale_config(o.seed, o.size));
  }
  return cells;
}

/// mech_sweep / bt_scale: every cell once, each report and event count
/// checked against the first repetition's.
inline Rep run_plain_rep(const Options& o, Checks& checks) {
  Rep rep;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  for (const sim::SwarmConfig& config : plain_cells(o)) {
    const std::string key = cell_key(o.workload, config);
    PlainCell cell;
    try {
      cell = run_plain_cell(config);
    } catch (const std::exception& e) {
      checks.cell(false, key + ": " + e.what());
      continue;
    }
    checks.cell(true, key);
    std::printf("# cell %s setup_s=%.6f run_s=%.6f\n", key.c_str(),
                cell.setup_s, cell.run_s);
    rep.setup_s += cell.setup_s;
    rep.run_s += cell.run_s;
    rep.events += cell.events;
    checks.same_digest(key + ".report", digest(cell.report_json));
    checks.same_digest(key + ".events", std::to_string(cell.events));
  }
  rep.cpu_s = cpu_now() - c0;
  rep.wall_s = wall_now() - w0;
  return rep;
}

/// ckpt_churn state carried across repetitions: the uninterrupted
/// reference report and the snapshot count that locates the middle
/// snapshot. Filled by the untimed warm-up cell.
struct ChurnReference {
  std::string report_json;
  std::size_t snapshots = 0;
  double snapshot_bytes_mean = 0.0;
};

/// 1-based index of the snapshot a resume starts from.
inline std::size_t middle_snapshot(std::size_t count) { return (count + 1) / 2; }

inline exp::CellOutcome run_checkpointed(
    const sim::SwarmConfig& config,
    std::function<void(std::size_t, const std::string&)> on_snapshot) {
  exp::CheckpointPolicy policy;
  policy.every = kCheckpointEvery;
  policy.on_snapshot = std::move(on_snapshot);
  return exp::run_supervised_cell(0, config, exp::Supervision{}, policy);
}

inline exp::CellOutcome run_resumed(const sim::SwarmConfig& config,
                                    const std::string& snapshot) {
  exp::CheckpointPolicy policy;
  policy.every = kCheckpointEvery;
  policy.snapshot_source = [&snapshot](std::size_t) { return snapshot; };
  policy.on_snapshot = [](std::size_t, const std::string&) {};
  return exp::run_supervised_cell(0, config, exp::Supervision{}, policy);
}

/// The untimed warm-up: one checkpointed cell, in-memory snapshots counted
/// and sized, its report kept as the uninterrupted reference.
inline ChurnReference churn_warmup(const Options& o, Checks& checks) {
  const sim::SwarmConfig config = ckpt_churn_config(o.seed, o.size);
  ChurnReference ref;
  double bytes = 0.0;
  const exp::CellOutcome out =
      run_checkpointed(config, [&](std::size_t, const std::string& s) {
        ++ref.snapshots;
        bytes += static_cast<double>(s.size());
      });
  checks.cell(out.ok(), "ckpt_churn warm-up cell: " + out.error);
  checks.expect(ref.snapshots > 0, "ckpt_churn warm-up took no snapshot");
  ref.report_json = out.report_json;
  ref.snapshot_bytes_mean = ratio(bytes, static_cast<double>(ref.snapshots));
  std::printf("# ckpt_churn snapshots=%zu events=%llu\n", ref.snapshots,
              static_cast<unsigned long long>(out.events));
  checks.same_digest("ckpt_churn/FairTorrent.report", digest(out.report_json));
  checks.same_digest("ckpt_churn/FairTorrent.events", std::to_string(out.events));
  return ref;
}

/// ckpt_churn: the checkpointed cell, then the same cell resumed from its
/// middle snapshot. The resumed report must equal the uninterrupted one
/// byte for byte.
inline Rep run_churn_rep(const Options& o, const ChurnReference& ref,
                         Checks& checks) {
  const sim::SwarmConfig config = ckpt_churn_config(o.seed, o.size);
  const std::size_t mid = middle_snapshot(ref.snapshots);
  Rep rep;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  std::string mid_bytes;
  std::size_t taken = 0;
  const exp::CellOutcome full =
      run_checkpointed(config, [&](std::size_t, const std::string& s) {
        if (++taken == mid) mid_bytes = s;
      });
  checks.cell(full.ok(), "ckpt_churn cell: " + full.error);
  checks.expect(taken == ref.snapshots,
                "ckpt_churn snapshot count " + std::to_string(taken) +
                    " != warm-up's " + std::to_string(ref.snapshots));
  checks.same_digest("ckpt_churn/FairTorrent.report", digest(full.report_json));
  checks.same_digest("ckpt_churn/FairTorrent.events",
                     std::to_string(full.events));
  if (o.inject == "corrupt-snapshot" && !mid_bytes.empty()) {
    mid_bytes[mid_bytes.size() / 2] ^= 0x5a;
  }
  const exp::CellOutcome resumed = run_resumed(config, mid_bytes);
  checks.cell(resumed.ok(), "ckpt_churn resume: " + resumed.error);
  checks.expect(resumed.resumed_from_checkpoint,
                "ckpt_churn resume restarted from scratch instead of "
                "restoring snapshot " + std::to_string(mid));
  checks.expect(resumed.report_json == ref.report_json,
                "ckpt_churn resumed report differs from the uninterrupted "
                "run");
  rep.cpu_s = cpu_now() - c0;
  rep.wall_s = wall_now() - w0;
  rep.run_s = full.wall_seconds;
  rep.resume_s = resumed.wall_seconds;
  rep.events = full.events;
  return rep;
}

}  // namespace perfbench
