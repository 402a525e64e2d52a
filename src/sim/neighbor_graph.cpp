#include "sim/neighbor_graph.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace coopnet::sim {

std::vector<std::vector<PeerId>> build_neighbor_graph(
    std::size_t n_peers, const NeighborGraphConfig& config,
    const std::vector<bool>& large_view, util::Rng& rng) {
  if (n_peers < 2) {
    throw std::invalid_argument("build_neighbor_graph: need >= 2 peers");
  }
  if (large_view.size() != n_peers) {
    throw std::invalid_argument("build_neighbor_graph: flag size mismatch");
  }
  if (config.degree == 0 || config.large_view_multiplier < 1.0) {
    throw std::invalid_argument("build_neighbor_graph: bad config");
  }

  const PeerId seeder = static_cast<PeerId>(n_peers);
  // Both directions of every sampled edge, duplicates included; each row
  // is sorted and deduplicated below.
  std::vector<std::vector<PeerId>> out(n_peers + 1);

  for (std::size_t i = 0; i < n_peers; ++i) {
    const auto want_raw = large_view[i]
                              ? static_cast<std::size_t>(std::llround(
                                    static_cast<double>(config.degree) *
                                    config.large_view_multiplier))
                              : config.degree;
    const std::size_t want = std::min(want_raw, n_peers - 1);
    // Sample from [0, n_peers - 1) and shift past self to avoid loops.
    for (std::size_t pick : rng.sample_indices(n_peers - 1, want)) {
      const PeerId j =
          static_cast<PeerId>(pick >= i ? pick + 1 : pick);
      out[i].push_back(j);
      out[j].push_back(static_cast<PeerId>(i));
    }
  }

  for (std::size_t i = 0; i < n_peers; ++i) {
    std::vector<PeerId>& row = out[i];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    row.push_back(seeder);  // everyone knows the seeder; it sorts last
    out[seeder].push_back(static_cast<PeerId>(i));
  }
  return out;
}

}  // namespace coopnet::sim
