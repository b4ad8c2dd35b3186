#include "dfs/placement.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace custody::dfs {

std::vector<NodeId> SampleDistinctNodes(std::size_t num_nodes, int count,
                                        const std::vector<NodeId>& exclude,
                                        Rng& rng) {
  assert(count >= 0);
  const std::size_t want = static_cast<std::size_t>(count);
  if (want + exclude.size() > num_nodes) {
    throw std::invalid_argument(
        "SampleDistinctNodes: more replicas requested than nodes available");
  }
  std::vector<NodeId> chosen;
  chosen.reserve(want);
  auto taken = [&](NodeId n) {
    return std::find(exclude.begin(), exclude.end(), n) != exclude.end() ||
           std::find(chosen.begin(), chosen.end(), n) != chosen.end();
  };
  while (chosen.size() < want) {
    const NodeId candidate(
        static_cast<NodeId::value_type>(rng.index(num_nodes)));
    if (!taken(candidate)) chosen.push_back(candidate);
  }
  return chosen;
}

std::vector<NodeId> RandomPlacement::place(const BlockInfo& /*block*/,
                                           int replicas,
                                           const PlacementView& view,
                                           Rng& rng) {
  return SampleDistinctNodes(view.num_nodes(), replicas, {}, rng);
}

std::vector<NodeId> RoundRobinPlacement::place(const BlockInfo& block,
                                               int replicas,
                                               const PlacementView& view,
                                               Rng& /*rng*/) {
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    nodes.push_back(NodeId(static_cast<NodeId::value_type>(
        (block.id.value() + static_cast<NodeId::value_type>(r)) %
        view.num_nodes())));
  }
  return nodes;
}

}  // namespace custody::dfs
