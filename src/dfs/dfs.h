// Facade over the simulated distributed filesystem: NameNode metadata,
// per-DataNode storage accounting, and a pluggable placement policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"
#include "dfs/block.h"
#include "dfs/namenode.h"
#include "dfs/placement.h"

namespace custody::obs {
class Tracer;
}

namespace custody::dfs {

struct DfsConfig {
  std::size_t num_nodes = 0;
  double block_bytes = units::MB(128.0);  ///< paper default
  int default_replication = 3;            ///< paper default
};

class Dfs final {
 public:
  /// Observes disk-replica churn: fires with added=true when `node` gains a
  /// replica of `block` (placement, re-replication, boosting) and
  /// added=false when it loses one (node failure).  Lets the dispatch index
  /// track disk locality without rescanning the NameNode.
  using ReplicaListener = std::function<void(BlockId, NodeId, bool added)>;
  using ListenerId = std::uint64_t;

  /// The policy defaults to HDFS-style RandomPlacement when null.
  Dfs(DfsConfig config, Rng rng,
      std::unique_ptr<PlacementPolicy> policy = nullptr);

  // --- writing -----------------------------------------------------------
  /// Create a file with the default replication and place all its blocks.
  FileId write_file(const std::string& path, double bytes);
  /// Create a file with an explicit replication level.
  FileId write_file(const std::string& path, double bytes, int replication);

  /// Add `extra` more replicas to every block of a file (Scarlett-style
  /// popularity boosting).  No-op when extra <= 0.
  void boost_replication(FileId file, int extra);

  /// A DataNode died: every replica it held, in block-id order, is
  /// re-replicated onto a node drawn uniformly from `live_nodes` minus the
  /// block's current holders, and the dead copy is dropped.  Blocks whose
  /// last copy lived there keep it (the cluster would restore them from
  /// cold storage).  The node's blocks come from one scan of the replica
  /// table; each target costs O(replication × log nodes), drawn as an order
  /// statistic of the sorted live list, so `live_nodes` must be ascending
  /// (Cluster::alive_nodes() is); an unsorted list throws
  /// std::invalid_argument before anything changes.
  void fail_node(NodeId node, const std::vector<NodeId>& live_nodes);

  // --- reading / inquiry (what Custody asks the NameNode) -----------------
  [[nodiscard]] const NameNode& namenode() const { return namenode_; }
  [[nodiscard]] const std::vector<BlockId>& blocks_of(FileId file) const {
    return namenode_.blocks_of(file);
  }
  [[nodiscard]] const std::vector<NodeId>& locations(BlockId block) const {
    return namenode_.locations(block);
  }
  [[nodiscard]] bool is_local(BlockId block, NodeId node) const {
    return namenode_.is_local(block, node);
  }
  [[nodiscard]] const BlockInfo& block(BlockId id) const {
    return namenode_.block(id);
  }

  [[nodiscard]] std::size_t num_nodes() const { return config_.num_nodes; }

  /// Bytes of disk replicas stored on `node`.
  [[nodiscard]] double bytes_on(NodeId node) const;

  [[nodiscard]] const DfsConfig& config() const { return config_; }

  /// Listener registration is const: observers do not alter filesystem
  /// state, and the scheduler side only ever sees a `const Dfs&`.
  ListenerId add_replica_listener(ReplicaListener fn) const;
  void remove_replica_listener(ListenerId id) const;

  /// Optional span tracing (null disables; the default).  Failover replica
  /// churn (kReplicaLost / kReReplicate) is recorded as instants; tracing
  /// never changes placement or consumes DFS RNG.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Serialize the run-mutable state: placement rng, per-node stored bytes
  /// and the NameNode replica map.  Listeners and tracer belong to the
  /// rebuilt substrate and are untouched; no listener fires during restore.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);
  void place_block(const BlockInfo& block, int replicas);
  void notify(BlockId block, NodeId node, bool added);

  DfsConfig config_;
  Rng rng_;
  std::unique_ptr<PlacementPolicy> policy_;
  NameNode namenode_;
  std::vector<double> node_bytes_;
  struct Listener {
    ListenerId id;
    ReplicaListener fn;
  };
  mutable std::vector<Listener> listeners_;
  mutable ListenerId next_listener_ = 1;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace custody::dfs
