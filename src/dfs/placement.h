// Block placement policies.
//
// The paper's clusters use HDFS's random three-replica placement; the
// popularity-based policy (Scarlett, EuroSys'11 — cited as a complementary
// technique in Sec. VII) is provided for the replication ablation benches.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dfs/block.h"

namespace custody::dfs {

/// Read-only view of cluster state a policy may consult.
class PlacementView {
 public:
  virtual ~PlacementView() = default;
  [[nodiscard]] virtual std::size_t num_nodes() const = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Choose `replicas` *distinct* nodes for a new block.
  [[nodiscard]] virtual std::vector<NodeId> place(const BlockInfo& block,
                                                  int replicas,
                                                  const PlacementView& view,
                                                  Rng& rng) = 0;
};

/// HDFS-style: replicas on uniformly random distinct nodes.
class RandomPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::vector<NodeId> place(const BlockInfo& block, int replicas,
                                          const PlacementView& view,
                                          Rng& rng) override;
};

/// Deterministic: block b's replicas go to nodes (b, b+1, ...) mod N.
/// Used by tests and the motivating-example benches, where the paper's
/// figures prescribe exactly which node stores which block.
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::vector<NodeId> place(const BlockInfo& block, int replicas,
                                          const PlacementView& view,
                                          Rng& rng) override;
};

/// Sample `count` distinct node ids, excluding `exclude`.
std::vector<NodeId> SampleDistinctNodes(std::size_t num_nodes, int count,
                                        const std::vector<NodeId>& exclude,
                                        Rng& rng);

}  // namespace custody::dfs
