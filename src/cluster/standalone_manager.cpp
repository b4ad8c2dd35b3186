#include "cluster/standalone_manager.h"

#include <span>
#include <stdexcept>
#include <vector>

#include "common/snapshot.h"

namespace custody::cluster {

StandaloneManager::StandaloneManager(sim::Simulator& sim, Cluster& cluster,
                                     StandaloneConfig config)
    : ClusterManager(sim, cluster), config_(config), rng_(config.seed) {
  if (config_.expected_apps <= 0) {
    throw std::invalid_argument("StandaloneManager: expected_apps must be > 0");
  }
  share_ = static_cast<int>(cluster_.num_executors()) / config_.expected_apps;
  if (share_ == 0) share_ = 1;
}

void StandaloneManager::register_app(AppHandle& app) {
  app.set_share(share_);
  ++stats_.allocation_rounds;
  if (config_.spread_out) {
    allocate_spread(app);
  } else {
    allocate_random(app);
  }
}

void StandaloneManager::allocate_spread(AppHandle& app) {
  // "spreadOut": sweep the nodes round-robin, taking one idle executor per
  // node per sweep, until the share is filled.  The set looks fair but is
  // oblivious to where the input blocks live.  The picks are granted as one
  // batch, so a node's k-th pick is its k-th lowest-id idle executor, read
  // from the cluster's idle index (which never holds executors of dead
  // nodes).
  const std::size_t num_nodes = cluster_.num_nodes();
  std::vector<std::size_t> picked_on(num_nodes, 0);
  std::vector<ExecutorId> picks;
  std::size_t nodes_without_idle = 0;
  while (static_cast<int>(picks.size()) < share_ &&
         nodes_without_idle < num_nodes) {
    const NodeId node(static_cast<NodeId::value_type>(next_node_));
    next_node_ = (next_node_ + 1) % num_nodes;
    const ExecutorId found =
        cluster_.idle_index().first_on(node, picked_on[node.value()]);
    if (found.valid()) {
      nodes_without_idle = 0;
      picks.push_back(found);
      ++picked_on[node.value()];
    } else {
      ++nodes_without_idle;
    }
  }
  grant(app, picks);
}

void StandaloneManager::allocate_random(AppHandle& app) {
  // The paper's baseline behaviour: "randomly allocate available resources
  // to applications when launching executors" — a uniform draw from the
  // idle executors with no attention to nodes, let alone data.  The share
  // is the head of the shuffled idle list, granted as one batch.
  std::vector<ExecutorId> idle;
  idle.reserve(cluster_.idle_count());
  cluster_.idle_index().append_ids(idle);  // ascending id order
  rng_.shuffle(idle);
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(share_),
                                          idle.size());
  grant(app, std::span<const ExecutorId>(idle).first(take));
}

void StandaloneManager::on_demand_changed(AppHandle& /*app*/) {
  // Static sharing: the executor set never changes after registration.
}

template <class Self, class Io>
void StandaloneManager::Fields(Self& self, Io& io) {
  ClusterManager::Fields(self, io);
  io.layer(self.rng_);
  io.u64(self.next_node_);
}

void StandaloneManager::SaveTo(snap::SnapshotWriter& w) const {
  Fields(*this, w);
}

void StandaloneManager::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
}

}  // namespace custody::cluster
