// Streaming JSONL trace: every transfer, bootstrap and finish event of a
// run, written as it happens.
//
// TraceSink writes one JSON object per line and flushes after every
// event, so the trace survives a crash or an InvariantViolation with at
// most the current line at risk, and memory stays O(1) regardless of run
// length. Chains to a second observer (e.g. RunMetrics).
#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "sim/swarm.h"

namespace coopnet::metrics {

/// One lifecycle event of a run.
struct TraceEvent {
  enum class Kind { kTransfer, kBootstrap, kFinish };
  Kind kind = Kind::kTransfer;
  double time = 0.0;
  sim::PeerId peer = sim::kNoPeer;  // receiver / subject
  sim::PeerId from = sim::kNoPeer;  // transfer source (kTransfer only)
  sim::PieceId piece = sim::kNoPiece;
  sim::Bytes bytes = 0;
  bool locked = false;
};

/// Writes every transfer/bootstrap/finish event to a stream as JSON lines:
///   {"kind":"transfer","time":...,"peer":4,"from":17,"piece":3,
///    "bytes":131072,"locked":false}
///   {"kind":"finish","time":...,"peer":4}
/// Times use round-trip (max_digits10) precision.
class TraceSink : public sim::SwarmObserver {
 public:
  /// Streams to `out` (not owned; must outlive the sink).
  explicit TraceSink(std::ostream& out, bool transfers_enabled = true);

  /// Opens `path` for writing (truncates). Throws std::runtime_error when
  /// the file cannot be opened.
  explicit TraceSink(const std::string& path, bool transfers_enabled = true);

  /// Restore path of a checkpointed run: truncates `path` to `resume_at`
  /// bytes (discarding lines written after the snapshot was taken) and
  /// appends from there, so the finished file is byte-identical to an
  /// uninterrupted run's trace. `resume_at` must not exceed the file's
  /// size; throws std::runtime_error otherwise.
  TraceSink(const std::string& path, bool transfers_enabled,
            std::uint64_t resume_at);

  /// Chains another observer behind this one (e.g. RunMetrics).
  void chain(sim::SwarmObserver* next) { next_ = next; }

  void on_transfer(const sim::Swarm& swarm, const sim::Transfer& t) override;
  void on_bootstrap(const sim::Swarm& swarm, sim::ConstPeer peer) override;
  void on_finish(const sim::Swarm& swarm, sim::ConstPeer peer) override;

  /// Writes one hand-built event (testing seam; the observer callbacks are
  /// the normal source).
  void write(const TraceEvent& e);

  std::size_t events_written() const { return events_written_; }

  /// Bytes emitted so far, INCLUDING the `resume_at` prefix adopted by
  /// the restore constructor. Checkpoints record this so a restore knows
  /// where to truncate (events_written_ only counts this process's
  /// events and is not checkpointed).
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::ofstream owned_;  // backing file for the path constructor
  std::ostream* out_;
  bool transfers_enabled_;
  sim::SwarmObserver* next_ = nullptr;
  std::size_t events_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace coopnet::metrics
