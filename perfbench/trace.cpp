// perfbench_trace: the per-layer (traced) run of one workload.
//
//   perfbench_trace --workload mech_sweep|bt_scale|ckpt_churn [--seed N]
//                   [--seconds S] [--size full|tiny] [--spans-out FILE]
//                   [--inject corrupt-snapshot|digest-mismatch]
//
// Alternates an untraced repetition (the same code perfbench_e2e runs) with
// a traced one until --seconds have passed, and prints the per-layer
// metrics as the last stdout line. Tracing happens entirely outside the
// simulator:
//   - the strategy is wrapped in a forwarding ExchangeStrategy that times
//     and counts every hook, and the metrics collector in a forwarding
//     SwarmObserver;
//   - the run is driven in one-simulated-second advance_until chunks so
//     the engine's queue depth can be sampled between them;
//   - ckpt_churn's cell is driven through SwarmCheckpoint::save /
//     encode_snapshot / decode_snapshot / restore directly, in the order
//     exp::run_supervised_cell uses them, so each step can be timed.
// Every traced report must equal its untraced twin byte for byte.
//
// Coarse spans (name, start, end, parent, cell) are kept in memory and
// written to --spans-out at exit. Hook calls run millions of times per
// cell, so they are aggregated per cell into counts and busy time instead
// of being logged one by one.
#include <array>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>

#include "sim/checkpoint.h"
#include "util/byteio.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// --- hook accounting ----------------------------------------------------------

/// Per-cell strategy hook counters and busy time.
struct HookStats {
  std::uint64_t next_upload_calls = 0;
  std::uint64_t next_upload_idle = 0;  // calls that returned no action
  std::uint64_t actions = 0;           // calls that returned an action
  std::uint64_t compliant_starts = 0;  // transfers begun by compliant peers
  std::uint64_t accepts_calls = 0;
  double next_upload_s = 0.0;
  double on_delivered_s = 0.0;
  double hook_s = 0.0;  // every other hook
  double observer_s = 0.0;
  std::uint64_t events = 0;  // engine events of the cell
};

/// Tracks span nesting so a layer's time is counted once: `outer_s` sums
/// only the outermost hook spans, which is what the engine's own time
/// excludes.
struct HookClock {
  int depth = 0;
  double outer_s = 0.0;
};

class HookTimer {
 public:
  HookTimer(HookClock& clock, double& acc)
      : clock_(clock), acc_(acc), start_(wall_now()) {
    ++clock_.depth;
  }
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;
  ~HookTimer() {
    const double d = wall_now() - start_;
    acc_ += d;
    if (--clock_.depth == 0) clock_.outer_s += d;
  }

 private:
  HookClock& clock_;
  double& acc_;
  double start_;
};

/// Forwards every ExchangeStrategy virtual to the real mechanism, timing
/// and counting on the way.
class TimedStrategy final : public sim::ExchangeStrategy {
 public:
  TimedStrategy(std::unique_ptr<sim::ExchangeStrategy> inner, HookClock& clock,
                HookStats& stats)
      : inner_(std::move(inner)), clock_(clock), stats_(stats) {}

  void attach(sim::Swarm& swarm) override {
    HookTimer t(clock_, stats_.hook_s);
    inner_->attach(swarm);
  }
  std::optional<sim::UploadAction> next_upload(sim::Swarm& swarm,
                                               sim::PeerId uploader) override {
    ++stats_.next_upload_calls;
    HookTimer t(clock_, stats_.next_upload_s);
    auto action = inner_->next_upload(swarm, uploader);
    ++(action ? stats_.actions : stats_.next_upload_idle);
    return action;
  }
  void on_upload_started(sim::Swarm& swarm,
                         const sim::Transfer& transfer) override {
    const sim::ConstPeer from = std::as_const(swarm).peer(transfer.from);
    if (!from.is_seeder() && !from.is_free_rider()) ++stats_.compliant_starts;
    HookTimer t(clock_, stats_.hook_s);
    inner_->on_upload_started(swarm, transfer);
  }
  bool accepts_delivery(const sim::Swarm& swarm,
                        sim::PeerId target) const override {
    ++stats_.accepts_calls;
    return inner_->accepts_delivery(swarm, target);
  }
  bool seeder_delivers_locked() const override {
    return inner_->seeder_delivers_locked();
  }
  void on_delivered(sim::Swarm& swarm, const sim::Transfer& transfer) override {
    HookTimer t(clock_, stats_.on_delivered_s);
    inner_->on_delivered(swarm, transfer);
  }
  void on_peer_activated(sim::Swarm& swarm, sim::PeerId id) override {
    HookTimer t(clock_, stats_.hook_s);
    inner_->on_peer_activated(swarm, id);
  }
  void on_peer_left(sim::Swarm& swarm, sim::PeerId id) override {
    HookTimer t(clock_, stats_.hook_s);
    inner_->on_peer_left(swarm, id);
  }
  void on_transfer_failed(sim::Swarm& swarm, const sim::Transfer& transfer,
                          bool will_retry) override {
    HookTimer t(clock_, stats_.hook_s);
    inner_->on_transfer_failed(swarm, transfer, will_retry);
  }
  void on_peer_departed(sim::Swarm& swarm, sim::PeerId id,
                        bool will_rejoin) override {
    HookTimer t(clock_, stats_.hook_s);
    inner_->on_peer_departed(swarm, id, will_rejoin);
  }
  void on_peer_rejoined(sim::Swarm& swarm, sim::PeerId id) override {
    HookTimer t(clock_, stats_.hook_s);
    inner_->on_peer_rejoined(swarm, id);
  }
  void checkpoint_save(util::ByteSink& sink) const override {
    inner_->checkpoint_save(sink);
  }
  void checkpoint_load(util::ByteSource& src, const sim::Swarm& swarm) override {
    inner_->checkpoint_load(src, swarm);
  }
  sim::SmallEventFn rebuild_timer(sim::Swarm& swarm,
                                  std::uint32_t sub) override {
    return inner_->rebuild_timer(swarm, sub);
  }

 private:
  std::unique_ptr<sim::ExchangeStrategy> inner_;
  HookClock& clock_;
  HookStats& stats_;
};

/// Forwards every SwarmObserver callback to the metrics collector.
class TimedObserver final : public sim::SwarmObserver {
 public:
  TimedObserver(sim::SwarmObserver& inner, HookClock& clock, HookStats& stats)
      : inner_(inner), clock_(clock), stats_(stats) {}

  void on_transfer(const sim::Swarm& swarm, const sim::Transfer& t) override {
    HookTimer timer(clock_, stats_.observer_s);
    inner_.on_transfer(swarm, t);
  }
  void on_bootstrap(const sim::Swarm& swarm, sim::ConstPeer peer) override {
    HookTimer timer(clock_, stats_.observer_s);
    inner_.on_bootstrap(swarm, peer);
  }
  void on_finish(const sim::Swarm& swarm, sim::ConstPeer peer) override {
    HookTimer timer(clock_, stats_.observer_s);
    inner_.on_finish(swarm, peer);
  }

 private:
  sim::SwarmObserver& inner_;
  HookClock& clock_;
  HookStats& stats_;
};

// --- span log ------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
    int cell;
  };

  /// Opens a span under the innermost open one; returns its index.
  int begin(std::string name, int cell) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), wall_now(), 0.0, parent, cell});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Closes span `index` (the innermost open one); returns its duration.
  double end(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = wall_now();
    open_.pop_back();
    return s.end - s.start;
  }
  int next_cell() { return cells_++; }

  /// Writes {"spans": [...], "hooks": [...]} with times relative to the
  /// first span.
  void write(const std::string& path, const std::string& hooks_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d, \"cell\": %d}%s\n",
                   i, s.name.c_str(), s.start - t0, s.end - t0, s.parent,
                   s.cell, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"hooks\": [%s]}\n", hooks_json.c_str());
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int cells_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int cell)
      : log_(log), index_(log.begin(std::move(name), cell)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (index_ >= 0) log_.end(index_);
  }
  double close() {
    const double d = log_.end(index_);
    index_ = -1;
    return d;
  }

 private:
  SpanLog& log_;
  int index_;
};

// --- traced cells --------------------------------------------------------------

/// One traced cell's layer breakdown.
struct CellTrace {
  std::string algorithm;
  double build_s = 0.0;     // Swarm constructor
  double rss_build_mb = 0.0;
  double run_s = 0.0;
  double self_s = 0.0;      // run_s minus outermost hook and snapshot time
  double snapshot_s = 0.0;  // checkpointing inside run_s
  double report_s = 0.0;
  std::uint64_t events = 0;
  std::size_t queue_depth_max = 0;
  HookStats hooks;
  sim::FaultStats faults;
  std::string report_json;
};

/// A swarm wrapped for tracing, built the way the untraced path builds it.
/// The swarm is declared last so it is destroyed before the observers and
/// the hook clock it points at.
struct TracedSwarm {
  HookClock clock;
  std::unique_ptr<metrics::RunMetrics> collector;
  std::unique_ptr<TimedObserver> observer;
  std::unique_ptr<sim::Swarm> swarm;

  TracedSwarm(const sim::SwarmConfig& config, CellTrace& trace) {
    const double t0 = wall_now();
    swarm = std::make_unique<sim::Swarm>(
        config, std::make_unique<TimedStrategy>(
                    strategy::make_strategy(config.algorithm), clock,
                    trace.hooks));
    trace.build_s = wall_now() - t0;
    trace.rss_build_mb = current_rss_mb();
    collector = std::make_unique<metrics::RunMetrics>();
    observer = std::make_unique<TimedObserver>(*collector, clock, trace.hooks);
  }
  /// Registers the timing observer in the collector's place; call after
  /// install()/install_restored(), which register the collector itself.
  void wrap_observer() { swarm->set_observer(observer.get()); }

  /// advance_until(deadline) in one-simulated-second chunks, sampling the
  /// queue depth between them. Chunked runs execute the identical event
  /// stream as one call.
  void advance(double deadline, CellTrace& trace) {
    double t = swarm->engine().now();
    while (!swarm->finished() && t < deadline) {
      t = std::min(std::floor(t) + 1.0, deadline);
      swarm->advance_until(t);
      trace.queue_depth_max =
          std::max(trace.queue_depth_max, swarm->engine().pending());
    }
  }

  /// Fills the run-side fields once the run span (`trace.run_s`, which
  /// began when the hook clock read `outer_start`) is closed, then builds
  /// the report.
  void finish(CellTrace& trace, double outer_start) {
    trace.self_s =
        trace.run_s - (clock.outer_s - outer_start) - trace.snapshot_s;
    trace.events = swarm->engine().events_processed();
    trace.faults = swarm->fault_stats();
    const double t0 = wall_now();
    trace.report_json =
        metrics::to_json(metrics::build_report(*swarm, *collector));
    trace.report_s = wall_now() - t0;
  }
};

CellTrace run_traced_plain(const sim::SwarmConfig& config, SpanLog& log) {
  CellTrace trace;
  trace.algorithm = core::to_string(config.algorithm);
  const int cell = log.next_cell();
  ScopedSpan cell_span(log, "cell." + trace.algorithm, cell);
  ScopedSpan setup_span(log, "setup", cell);
  TracedSwarm ts(config, trace);
  ts.collector->install(*ts.swarm);
  ts.wrap_observer();
  setup_span.close();

  ScopedSpan run_span(log, "run", cell);
  const double outer_start = ts.clock.outer_s;
  ts.swarm->start();
  ts.advance(config.max_time, trace);
  trace.run_s = run_span.close();
  ScopedSpan report_span(log, "report", cell);
  ts.finish(trace, outer_start);
  return trace;
}

/// One slot per snapshot section id.
constexpr std::size_t kSectionSlots = sim::kSectionTrace + 1;

/// ckpt_churn's traced half: per-snapshot and restore-side timings.
struct ChurnTrace {
  CellTrace cell;         // the uninterrupted, snapshotting cell
  CellTrace resumed;      // the cell resumed from its middle snapshot
  std::vector<double> save_ms;
  std::vector<double> encode_ms;
  double decode_ms = 0.0;
  double restore_ms = 0.0;
  std::size_t snapshots = 0;
  std::array<double, kSectionSlots> section_bytes{};  // summed per section id
  bool restored = false;
};

/// Snapshots `ts` the way exp::run_supervised_cell does; returns the
/// encoded bytes.
std::string take_snapshot(const sim::SwarmConfig& config, TracedSwarm& ts,
                          CellTrace& trace, SpanLog& log, int cell,
                          ChurnTrace* stats) {
  ScopedSpan snap(log, "snapshot", cell);
  ScopedSpan save_span(log, "save", cell);
  std::vector<sim::SnapshotSection> sections =
      sim::SwarmCheckpoint::save(*ts.swarm);
  const double save_s = save_span.close();
  util::ByteSink msink;
  ts.collector->checkpoint_save(msink);
  sections.push_back({sim::kSectionMetrics, msink.take()});
  ScopedSpan encode_span(log, "encode", cell);
  std::string bytes = sim::encode_snapshot(config, sections);
  const double encode_s = encode_span.close();
  trace.snapshot_s += snap.close();
  if (stats != nullptr) {
    stats->save_ms.push_back(1e3 * save_s);
    stats->encode_ms.push_back(1e3 * encode_s);
    ++stats->snapshots;
    for (const sim::SnapshotSection& s : sections) {
      if (s.id < stats->section_bytes.size()) {
        stats->section_bytes[s.id] += static_cast<double>(s.payload.size());
      }
    }
  }
  return bytes;
}

/// The snapshot loop of exp::run_supervised_cell from simulated time
/// `next` on.
void run_snapshotting(const sim::SwarmConfig& config, TracedSwarm& ts,
                      CellTrace& trace, double next, SpanLog& log, int cell,
                      ChurnTrace* stats, std::size_t keep,
                      std::string* kept) {
  std::size_t taken = 0;
  while (!ts.swarm->finished() && next < config.max_time) {
    ts.advance(next, trace);
    if (ts.swarm->finished()) break;
    std::string bytes = take_snapshot(config, ts, trace, log, cell, stats);
    if (++taken == keep && kept != nullptr) *kept = std::move(bytes);
    next += kCheckpointEvery;
  }
  if (!ts.swarm->finished()) ts.advance(config.max_time, trace);
}

ChurnTrace run_traced_churn(const Options& o, const ChurnReference& ref,
                            SpanLog& log) {
  const sim::SwarmConfig config = ckpt_churn_config(o.seed, o.size);
  ChurnTrace out;
  std::string mid_bytes;
  {
    CellTrace& trace = out.cell;
    trace.algorithm = core::to_string(config.algorithm);
    const int cell = log.next_cell();
    ScopedSpan cell_span(log, "cell." + trace.algorithm, cell);
    ScopedSpan setup_span(log, "setup", cell);
    TracedSwarm ts(config, trace);
    ts.swarm->enable_checkpoints();
    ts.collector->install(*ts.swarm);
    ts.wrap_observer();
    setup_span.close();
    ScopedSpan run_span(log, "run", cell);
    const double outer_start = ts.clock.outer_s;
    ts.swarm->start();
    run_snapshotting(config, ts, trace, kCheckpointEvery, log, cell, &out,
                     middle_snapshot(ref.snapshots), &mid_bytes);
    trace.run_s = run_span.close();
    ScopedSpan report_span(log, "report", cell);
    ts.finish(trace, outer_start);
  }
  if (o.inject == "corrupt-snapshot" && !mid_bytes.empty()) {
    mid_bytes[mid_bytes.size() / 2] ^= 0x5a;
  }
  CellTrace& trace = out.resumed;
  trace.algorithm = out.cell.algorithm;
  const int cell = log.next_cell();
  ScopedSpan cell_span(log, "resume." + trace.algorithm, cell);
  try {
    ScopedSpan decode_span(log, "decode", cell);
    const std::vector<sim::SnapshotSection> sections =
        sim::decode_snapshot(config, mid_bytes);
    out.decode_ms = 1e3 * decode_span.close();
    TracedSwarm ts(config, trace);
    ts.swarm->enable_checkpoints();
    ts.swarm->start_restored();
    ts.collector->install_restored(*ts.swarm);
    ScopedSpan restore_span(log, "restore", cell);
    sim::SwarmCheckpoint::restore(*ts.swarm, sections);
    for (const sim::SnapshotSection& s : sections) {
      if (s.id != sim::kSectionMetrics) continue;
      util::ByteSource src(s.payload, "metrics section");
      ts.collector->checkpoint_load(src);
      src.expect_exhausted();
    }
    out.restore_ms = 1e3 * restore_span.close();
    ts.wrap_observer();
    ScopedSpan run_span(log, "run", cell);
    const double outer_start = ts.clock.outer_s;
    const double next =
        (std::floor(ts.swarm->engine().now() / kCheckpointEvery) + 1.0) *
        kCheckpointEvery;
    run_snapshotting(config, ts, trace, next, log, cell, nullptr, 0, nullptr);
    trace.run_s = run_span.close();
    ScopedSpan report_span(log, "report", cell);
    ts.finish(trace, outer_start);
    out.restored = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: resume failed -- %s\n", e.what());
  }
  return out;
}

// --- the run ------------------------------------------------------------------

/// Per-repetition sums of the traced layers (plain and churn alike).
struct TracedRep {
  double wall_s = 0.0;
  double build_s = 0.0;
  double rss_build_mb = 0.0;
  double self_s = 0.0;
  double report_s = 0.0;
  double observer_s = 0.0;
  std::uint64_t events = 0;
  std::size_t queue_depth_max = 0;
  std::map<std::string, HookStats> hooks;  // by mechanism
  sim::FaultStats faults;
};

void add_cell(TracedRep& rep, const CellTrace& c) {
  rep.build_s += c.build_s;
  rep.rss_build_mb = std::max(rep.rss_build_mb, c.rss_build_mb);
  rep.self_s += c.self_s;
  rep.report_s += c.report_s;
  rep.observer_s += c.hooks.observer_s;
  rep.events += c.events;
  rep.queue_depth_max = std::max(rep.queue_depth_max, c.queue_depth_max);
  HookStats& h = rep.hooks[c.algorithm];
  h = c.hooks;
  h.events = c.events;
}

std::string hooks_json(const std::map<std::string, HookStats>& hooks) {
  std::string out;
  for (const auto& [algo, h] : hooks) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"mechanism\": \"%s\", \"next_upload_calls\": %llu, "
                  "\"next_upload_s\": %.9f, \"on_delivered_s\": %.9f, "
                  "\"hook_s\": %.9f, \"observer_s\": %.9f, "
                  "\"accepts_delivery_calls\": %llu}",
                  out.empty() ? "" : ",", algo.c_str(),
                  static_cast<unsigned long long>(h.next_upload_calls),
                  h.next_upload_s, h.on_delivered_s, h.hook_s, h.observer_s,
                  static_cast<unsigned long long>(h.accepts_calls));
    out += buf;
  }
  return out;
}

int run(const Options& o) {
  print_header(o, "perfbench_trace");
  Checks checks(o.inject == "digest-mismatch");
  SpanLog log;
  const bool churn = o.workload == "ckpt_churn";
  const sim::SwarmConfig churn_config = ckpt_churn_config(o.seed, o.size);
  ChurnReference ref;
  if (churn) ref = churn_warmup(o, checks);

  std::vector<double> untraced_wall, traced_wall, build, rss_build, self,
      report, observer, plain_run, ckpt_run, resume;
  std::map<std::string, std::vector<HookStats>> hook_reps;
  std::vector<double> save_ms, encode_ms, decode_ms, restore_ms;
  std::array<double, kSectionSlots> section_bytes{};
  std::size_t snapshots = 0;
  TracedRep last;

  const double start = wall_now();
  int reps = 0;
  while (reps < 1 || wall_now() - start < o.seconds) {
    ++reps;
    // Untraced twin: exactly what perfbench_e2e times.
    {
      ScopedSpan span(log, "rep.untraced", -1);
      if (churn) {
        const Rep rep = run_churn_rep(o, ref, checks);
        ckpt_run.push_back(rep.run_s);
        resume.push_back(rep.resume_s);
      } else {
        run_plain_rep(o, checks);
      }
      untraced_wall.push_back(span.close());
    }
    if (churn) {
      // The same cell without checkpointing, for checkpoint.overhead_ratio.
      ScopedSpan span(log, "cell.plain", -1);
      const exp::CellOutcome plain =
          exp::run_supervised_cell(0, churn_config, exp::Supervision{});
      checks.cell(plain.ok() && plain.report_json == ref.report_json,
                  "ckpt_churn plain cell differs from the checkpointed one");
      plain_run.push_back(plain.wall_seconds);
    }

    TracedRep rep;
    ScopedSpan span(log, "rep.traced", -1);
    if (churn) {
      ChurnTrace t;
      try {
        t = run_traced_churn(o, ref, log);
      } catch (const std::exception& e) {
        checks.cell(false, std::string("ckpt_churn traced: ") + e.what());
      }
      checks.cell(t.cell.report_json == ref.report_json,
                  "ckpt_churn traced report differs from the untraced one");
      checks.cell(t.restored && t.resumed.report_json == ref.report_json,
                  "ckpt_churn traced resume did not reproduce the "
                  "uninterrupted report");
      checks.expect(t.snapshots == ref.snapshots,
                    "ckpt_churn traced snapshot count differs");
      add_cell(rep, t.cell);
      rep.faults = t.cell.faults;
      save_ms.insert(save_ms.end(), t.save_ms.begin(), t.save_ms.end());
      encode_ms.insert(encode_ms.end(), t.encode_ms.begin(), t.encode_ms.end());
      if (t.restored) {
        decode_ms.push_back(t.decode_ms);
        restore_ms.push_back(t.restore_ms);
      }
      snapshots = t.snapshots;
      section_bytes = t.section_bytes;
    } else {
      for (const sim::SwarmConfig& config : plain_cells(o)) {
        const std::string key = cell_key(o.workload, config);
        try {
          const CellTrace c = run_traced_plain(config, log);
          checks.cell(true, key);
          checks.same_digest(key + ".report", digest(c.report_json));
          checks.same_digest(key + ".events", std::to_string(c.events));
          add_cell(rep, c);
          rep.faults.transfer_failures += c.faults.transfer_failures;
          rep.faults.retries_scheduled += c.faults.retries_scheduled;
          rep.faults.churn_departures += c.faults.churn_departures;
          rep.faults.churn_rejoins += c.faults.churn_rejoins;
          rep.faults.offered_bytes += c.faults.offered_bytes;
          rep.faults.goodput_bytes += c.faults.goodput_bytes;
        } catch (const std::exception& e) {
          checks.cell(false, key + " traced: " + e.what());
        }
      }
    }
    rep.wall_s = span.close();
    traced_wall.push_back(rep.wall_s);
    build.push_back(rep.build_s);
    rss_build.push_back(rep.rss_build_mb);
    self.push_back(rep.self_s);
    report.push_back(rep.report_s);
    observer.push_back(rep.observer_s);
    for (const auto& [algo, h] : rep.hooks) hook_reps[algo].push_back(h);
    last = std::move(rep);
  }

  std::vector<Metric> m;
  const double events = static_cast<double>(last.events);
  const double self_s = median(self);
  m.push_back({"sim.build_s", median(build), "s"});
  m.push_back({"sim.rss_build_mb", median(rss_build), "MB"});
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.self_s", self_s, "s"});
  m.push_back({"sim.self_ns_per_event", 1e9 * ratio(self_s, events), "ns"});
  m.push_back({"sim.queue_depth_max",
               static_cast<double>(last.queue_depth_max), "count"});
  for (core::Algorithm a : core::kAllAlgorithms) {
    const std::string sfx = "." + core::to_string(a);
    const std::vector<HookStats>& hs = hook_reps[core::to_string(a)];
    const HookStats h = hs.empty() ? HookStats{} : hs.back();
    auto med = [&hs](double HookStats::*field) {
      std::vector<double> v;
      for (const HookStats& x : hs) v.push_back(x.*field);
      return median(v);
    };
    const double calls = static_cast<double>(h.next_upload_calls);
    const double nu_s = med(&HookStats::next_upload_s);
    const double a_calls = static_cast<double>(h.accepts_calls);
    m.push_back({"strategy.next_upload.calls" + sfx, calls, "count"});
    m.push_back({"strategy.next_upload_s" + sfx, nu_s, "s"});
    m.push_back({"strategy.next_upload.ns_per_call" + sfx,
                 1e9 * ratio(nu_s, calls), "ns"});
    m.push_back({"strategy.next_upload.idle_ratio" + sfx,
                 ratio(static_cast<double>(h.next_upload_idle), calls),
                 "ratio"});
    m.push_back({"strategy.start_ratio" + sfx,
                 ratio(static_cast<double>(h.compliant_starts),
                       static_cast<double>(h.actions)),
                 "ratio"});
    m.push_back({"strategy.accepts_delivery.calls" + sfx, a_calls, "count"});
    m.push_back({"strategy.accepts_delivery.per_event" + sfx,
                 ratio(a_calls, static_cast<double>(h.events)), "ratio"});
    m.push_back({"strategy.on_delivered_s" + sfx,
                 med(&HookStats::on_delivered_s), "s"});
    m.push_back({"strategy.hook_s" + sfx, med(&HookStats::hook_s), "s"});
  }
  m.push_back({"metrics.report_s", median(report), "s"});
  m.push_back({"metrics.observer_s", median(observer), "s"});

  const double section_mb_den = static_cast<double>(snapshots) * kMB;
  static constexpr std::array<std::pair<const char*, std::uint32_t>, 7>
      kSections = {{{"engine", sim::kSectionEngine},
                    {"queue", sim::kSectionQueue},
                    {"rng", sim::kSectionRng},
                    {"peers", sim::kSectionPeers},
                    {"strategy", sim::kSectionStrategy},
                    {"swarm", sim::kSectionSwarm},
                    {"metrics", sim::kSectionMetrics}}};
  m.push_back({"checkpoint.snapshots", static_cast<double>(snapshots), "count"});
  m.push_back({"checkpoint.save_ms_p50", quantile(save_ms, 0.5), "ms"});
  m.push_back({"checkpoint.save_ms_p80", quantile(save_ms, 0.8), "ms"});
  m.push_back({"checkpoint.encode_ms_p50", quantile(encode_ms, 0.5), "ms"});
  m.push_back({"checkpoint.decode_ms_p50", quantile(decode_ms, 0.5), "ms"});
  m.push_back({"checkpoint.restore_ms_p50", quantile(restore_ms, 0.5), "ms"});
  for (const auto& [name, id] : kSections) {
    m.push_back({std::string("checkpoint.section_mb.") + name,
                 ratio(section_bytes[id], section_mb_den), "MB"});
  }
  m.push_back({"checkpoint.overhead_ratio",
               ratio(median(ckpt_run), median(plain_run)), "ratio"});
  m.push_back({"checkpoint.snapshot_mb", ref.snapshot_bytes_mean / kMB, "MB"});
  m.push_back({"checkpoint.resume_s", median(resume), "s"});

  const sim::FaultStats& f = last.faults;
  m.push_back({"faults.lost", static_cast<double>(f.transfer_failures), "count"});
  m.push_back({"faults.retries", static_cast<double>(f.retries_scheduled),
               "count"});
  m.push_back({"faults.departures", static_cast<double>(f.churn_departures),
               "count"});
  m.push_back({"faults.rejoins", static_cast<double>(f.churn_rejoins), "count"});
  m.push_back({"faults.goodput_ratio", f.goodput_ratio(), "ratio"});
  m.push_back({"exp.cells", static_cast<double>(checks.cells()), "count"});
  m.push_back({"exp.cells_failed", static_cast<double>(checks.cells_failed()),
               "count"});
  const ProcCounters pc = proc_counters();
  m.push_back({"proc.nivcsw", static_cast<double>(pc.nivcsw), "count"});
  m.push_back({"proc.minflt", static_cast<double>(pc.minflt), "count"});
  m.push_back({"trace.overhead_ratio",
               ratio(median(traced_wall), median(untraced_wall)), "ratio"});

  if (!o.spans_out.empty()) log.write(o.spans_out, hooks_json(last.hooks));
  print_result(checks, m, reps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 2;
  }
}
