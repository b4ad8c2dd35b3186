#include "dfs/dfs.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::dfs {

Dfs::Dfs(DfsConfig config, Rng rng, std::unique_ptr<PlacementPolicy> policy)
    : config_(config),
      rng_(rng),
      policy_(policy ? std::move(policy)
                     : std::make_unique<RandomPlacement>()),
      node_bytes_(config.num_nodes, 0.0) {
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("Dfs: num_nodes must be positive");
  }
}

double Dfs::bytes_on(NodeId node) const {
  assert(node.value() < node_bytes_.size());
  return node_bytes_[node.value()];
}

void Dfs::notify(BlockId block, NodeId node, bool added) {
  for (const Listener& listener : listeners_) listener.fn(block, node, added);
}

Dfs::ListenerId Dfs::add_replica_listener(ReplicaListener fn) const {
  const ListenerId id = next_listener_++;
  listeners_.push_back({id, std::move(fn)});
  return id;
}

void Dfs::remove_replica_listener(ListenerId id) const {
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->id == id) {
      listeners_.erase(it);
      return;
    }
  }
}

void Dfs::place_block(const BlockInfo& block, int replicas) {
  const auto nodes = policy_->place(block, replicas, *this, rng_);
  assert(static_cast<int>(nodes.size()) == replicas);
  for (NodeId n : nodes) {
    namenode_.add_replica(block.id, n);
    node_bytes_[n.value()] += block.bytes;
    notify(block.id, n, true);
  }
}

FileId Dfs::write_file(const std::string& path, double bytes) {
  return write_file(path, bytes, config_.default_replication);
}

FileId Dfs::write_file(const std::string& path, double bytes,
                       int replication) {
  if (static_cast<std::size_t>(replication) > config_.num_nodes) {
    throw std::invalid_argument("Dfs: replication exceeds cluster size");
  }
  const FileId id =
      namenode_.create_file(path, bytes, config_.block_bytes, replication);
  for (BlockId b : namenode_.blocks_of(id)) {
    place_block(namenode_.block(b), replication);
  }
  return id;
}

void Dfs::fail_node(NodeId node, const std::vector<NodeId>& live_nodes) {
  if (!std::is_sorted(live_nodes.begin(), live_nodes.end())) {
    throw std::invalid_argument("Dfs::fail_node: live_nodes must be sorted");
  }
  std::vector<std::size_t> excluded;  // positions in live_nodes
  for (const BlockId b : namenode_.blocks_on(node)) {  // ascending id
    const double bytes = namenode_.block(b).bytes;
    // The candidates are live_nodes minus `node` minus current replica
    // holders, in live_nodes (= sorted) order.  Instead of building that
    // list, locate the excluded positions (node is a holder of b, so the
    // holder pass covers it) ...
    excluded.clear();
    for (NodeId holder : namenode_.locations(b)) {
      const auto it =
          std::lower_bound(live_nodes.begin(), live_nodes.end(), holder);
      if (it != live_nodes.end() && *it == holder) {
        excluded.push_back(static_cast<std::size_t>(it - live_nodes.begin()));
      }
    }
    const std::size_t count = live_nodes.size() - excluded.size();
    if (count > 0) {
      // ... draw the candidate's rank, then skip it past the excluded
      // positions (ascending, since locations() and live_nodes are both
      // sorted) to land on the k-th candidate.
      std::size_t j = rng_.index(count);
      for (std::size_t pos : excluded) {
        if (pos <= j) {
          ++j;
        } else {
          break;
        }
      }
      const NodeId target = live_nodes[j];
      namenode_.add_replica(b, target);
      node_bytes_[target.value()] += bytes;
      if (tracer_ != nullptr) {
        tracer_->instant({.node = obs::IdOf(target),
                          .block = obs::IdOf(b),
                          .kind = obs::EventKind::kReReplicate});
      }
      notify(b, target, true);
    }
    if (namenode_.locations(b).size() > 1) {
      namenode_.remove_replica(b, node);
      node_bytes_[node.value()] -= bytes;
      if (tracer_ != nullptr) {
        tracer_->instant({.node = obs::IdOf(node),
                          .block = obs::IdOf(b),
                          .kind = obs::EventKind::kReplicaLost});
      }
      notify(b, node, false);
    }
  }
}

template <class Self, class Io>
void Dfs::Fields(Self& self, Io& io) {
  io.layer(self.rng_);
  std::size_t nodes = self.node_bytes_.size();
  io.size(nodes);
  if (nodes != self.node_bytes_.size()) {
    throw snap::SnapshotError("Dfs node count mismatch: snapshot has " +
                              std::to_string(nodes) + ", this dfs has " +
                              std::to_string(self.node_bytes_.size()));
  }
  for (auto& bytes : self.node_bytes_) io.f64(bytes);
  io.layer(self.namenode_, self.config_.num_nodes);
}

void Dfs::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }
void Dfs::RestoreFrom(snap::SnapshotReader& r) { Fields(*this, r); }

void Dfs::boost_replication(FileId file, int extra) {
  if (extra <= 0) return;
  for (BlockId b : namenode_.blocks_of(file)) {
    const auto& existing = namenode_.locations(b);
    if (existing.size() + static_cast<std::size_t>(extra) >
        config_.num_nodes) {
      throw std::invalid_argument("Dfs: replica boost exceeds cluster size");
    }
    const auto nodes = SampleDistinctNodes(config_.num_nodes, extra,
                                           existing, rng_);
    for (NodeId n : nodes) {
      namenode_.add_replica(b, n);
      node_bytes_[n.value()] += namenode_.block(b).bytes;
      notify(b, n, true);
    }
  }
}

}  // namespace custody::dfs
