#include "metrics/trace_log.h"

#include <sstream>

#include "util/parse.h"

namespace coopnet::metrics {

void TraceLog::on_transfer(const sim::Swarm& swarm, const sim::Transfer& t) {
  ++transfer_count_;
  if (transfers_enabled_) {
    events_.push_back({TraceEvent::Kind::kTransfer, t.end, t.to, t.from,
                       t.piece, t.bytes, t.locked});
  }
  if (next_ != nullptr) next_->on_transfer(swarm, t);
}

void TraceLog::on_bootstrap(const sim::Swarm& swarm, sim::ConstPeer peer) {
  events_.push_back({TraceEvent::Kind::kBootstrap, swarm.engine().now(),
                     peer.id(), sim::kNoPeer, sim::kNoPiece, 0, false});
  if (next_ != nullptr) next_->on_bootstrap(swarm, peer);
}

void TraceLog::on_finish(const sim::Swarm& swarm, sim::ConstPeer peer) {
  events_.push_back({TraceEvent::Kind::kFinish, swarm.engine().now(),
                     peer.id(), sim::kNoPeer, sim::kNoPiece, 0, false});
  if (next_ != nullptr) next_->on_finish(swarm, peer);
}

std::vector<TraceEvent> TraceLog::for_peer(sim::PeerId id) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.peer == id || e.from == id) out.push_back(e);
  }
  return out;
}

std::string TraceLog::to_csv() const {
  std::ostringstream os;
  os << "kind,time,peer,from,piece,bytes,locked\n";
  for (const auto& e : events_) {
    const char* kind = e.kind == TraceEvent::Kind::kTransfer ? "transfer"
                       : e.kind == TraceEvent::Kind::kBootstrap
                           ? "bootstrap"
                           : "finish";
    // util::g17 parses back to the exact double, so sub-second deltas
    // survive even past t ~ 1e5 s where the default 6-significant-digit
    // formatting collapses them.
    os << kind << ',' << util::g17(e.time) << ',' << e.peer << ',';
    if (e.from == sim::kNoPeer) {
      os << '-';
    } else {
      os << e.from;
    }
    os << ',';
    if (e.piece == sim::kNoPiece) {
      os << '-';
    } else {
      os << e.piece;
    }
    os << ',' << e.bytes << ',' << (e.locked ? 1 : 0) << '\n';
  }
  return os.str();
}

}  // namespace coopnet::metrics
