#include "cluster/pool_manager.h"

#include <stdexcept>
#include <vector>

#include "common/snapshot.h"

namespace custody::cluster {

PoolManager::PoolManager(sim::Simulator& sim, Cluster& cluster,
                         PoolConfig config)
    : ClusterManager(sim, cluster), config_(config), rng_(config.seed) {
  if (config_.expected_apps <= 0) {
    throw std::invalid_argument("PoolManager: expected_apps must be > 0");
  }
  share_ = static_cast<int>(cluster_.num_executors()) / config_.expected_apps;
  if (share_ == 0) share_ = 1;
}

void PoolManager::register_app(AppHandle& app) {
  app.set_share(share_);
  apps_.push_back(&app);
}

void PoolManager::on_demand_changed(AppHandle& /*app*/) { schedule_round(); }

void PoolManager::release_executor(ExecutorId exec) {
  ClusterManager::release_executor(exec);
  schedule_round();
}

void PoolManager::schedule_round() {
  if (round_pending_) return;
  round_pending_ = true;
  sim_.post(0.0, [this] {
    round_pending_ = false;
    distribute();
  });
}

template <class Self, class Io>
void PoolManager::Fields(Self& self, Io& io) {
  ClusterManager::Fields(self, io);
  io.layer(self.rng_);
}

void PoolManager::SaveTo(snap::SnapshotWriter& w) const {
  if (round_pending_) {
    throw snap::SnapshotError(
        "PoolManager: allocation round pending at snapshot; rounds are "
        "zero-delay posts and must drain before a between-events boundary");
  }
  Fields(*this, w);
}

void PoolManager::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
  round_pending_ = false;
}

void PoolManager::distribute() {
  // No skip trigger here, unlike custody/offer: the shuffle below consumes
  // RNG draws on every non-empty round, so eliding a round would shift the
  // stream and change every later grant.  The snapshot comes from the idle
  // index in O(idle), ascending by id.
  std::vector<core::ExecutorInfo> idle;
  idle.reserve(cluster_.idle_count());
  cluster_.idle_index().append_infos(idle);
  if (idle.empty()) return;
  rng_.shuffle(idle);  // data-unaware: any executor is as good as any other
  ++stats_.allocation_rounds;

  std::size_t next = 0;
  bool progress = true;
  while (progress && next < idle.size()) {
    progress = false;
    for (AppHandle* app : apps_) {
      if (next >= idle.size()) break;
      const int held = cluster_.owned_by(app->id());
      if (held >= effective_budget(*app, share_)) continue;
      grant(*app, idle[next].id);
      ++next;
      progress = true;
    }
  }
}

}  // namespace custody::cluster
