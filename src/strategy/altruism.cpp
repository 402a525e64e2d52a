#include "strategy/altruism.h"

#include "sim/swarm.h"

namespace coopnet::strategy {

std::optional<sim::UploadAction> AltruismStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  const auto& needy = swarm.needy_neighbors(uploader);
  if (needy.empty()) return std::nullopt;
  const sim::PeerId to = needy[swarm.rng().uniform_u64(needy.size())];
  const sim::PieceId piece = swarm.pick_piece(uploader, to);
  if (piece == sim::kNoPiece) return std::nullopt;
  return sim::UploadAction{to, piece, /*locked=*/false};
}

}  // namespace coopnet::strategy
