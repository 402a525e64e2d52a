#include "strategy/fairtorrent.h"

#include <cstdint>
#include <vector>

#include "sim/swarm.h"

namespace coopnet::strategy {

std::optional<sim::UploadAction> FairTorrentStrategy::next_upload(
    sim::Swarm& swarm, sim::PeerId uploader) {
  const sim::Peer up = swarm.peer(uploader);
  const auto& needy = swarm.needy_neighbors(uploader);
  if (needy.empty()) return std::nullopt;

  // Smallest deficit wins; random tie-break. A missing entry is a zero
  // deficit (newcomers). When the minimum is positive (everyone has been
  // repaid in full and then some), the least-overpaid neighbor is served,
  // which keeps the upload capacity utilized (Lemma 2) -- real FairTorrent
  // behaves the same way. `needy` is ascending, so one cursor walks the
  // ledger row alongside it.
  std::int64_t best = 0;
  std::vector<sim::PeerId> ties;
  bool first = true;
  sim::LedgerCursor ledger(up.ledger());
  for (sim::PeerId n : needy) {
    const sim::EdgeCounters* e = ledger.find(n);
    const std::int64_t d = e == nullptr ? 0 : e->deficit;
    if (first || d < best) {
      best = d;
      ties.assign(1, n);
      first = false;
    } else if (d == best) {
      ties.push_back(n);
    }
  }
  const sim::PeerId to = ties[swarm.rng().uniform_u64(ties.size())];
  const sim::PieceId piece = swarm.pick_piece(uploader, to);
  if (piece == sim::kNoPiece) return std::nullopt;
  return sim::UploadAction{to, piece, /*locked=*/false};
}

}  // namespace coopnet::strategy
