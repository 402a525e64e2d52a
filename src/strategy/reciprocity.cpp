#include "strategy/reciprocity.h"

#include "sim/swarm.h"

namespace coopnet::strategy {

std::optional<sim::UploadAction> ReciprocityStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  // Candidates: neighbors that actually gave us data, ranked by bytes
  // contributed; upload goes to the top contributor that needs something.
  const sim::Peer up = swarm.peer(uploader);
  sim::PeerId best = sim::kNoPeer;
  sim::Bytes best_bytes = 0;
  for (const sim::EdgeCounters& e : up.ledger()) {
    if (e.received <= 0 || e.received < best_bytes) continue;
    if (!swarm.needs_from(e.peer, uploader)) continue;
    if (e.received > best_bytes || best == sim::kNoPeer) {
      best = e.peer;
      best_bytes = e.received;
    }
  }
  if (best == sim::kNoPeer) return std::nullopt;
  const sim::PieceId piece = swarm.pick_piece(uploader, best);
  if (piece == sim::kNoPiece) return std::nullopt;
  return sim::UploadAction{best, piece, /*locked=*/false};
}

}  // namespace coopnet::strategy
