// A YARN-style dynamic resource-pool manager (paper Secs. II, VII).
//
// Unlike the static standalone manager, executors are granted on demand and
// returned when idle; unlike Mesos there is no offer negotiation — the
// manager simply hands out idle executors up to each application's pool
// share.  Crucially, and exactly as the paper criticizes, the *choice* of
// executors "only captures computation resources as metrics and still lacks
// data awareness": grants are uniformly random.  The third baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/manager.h"
#include "common/rng.h"

namespace custody::cluster {

struct PoolConfig {
  int expected_apps = 4;
  std::uint64_t seed = 1;
};

class PoolManager final : public ClusterManager {
 public:
  PoolManager(sim::Simulator& sim, Cluster& cluster, PoolConfig config);

  [[nodiscard]] const char* name() const override { return "pool"; }

  void register_app(AppHandle& app) override;
  void on_demand_changed(AppHandle& app) override;
  void release_executor(ExecutorId exec) override;

  [[nodiscard]] int share() const { return share_; }

  /// Stats + shuffle RNG.  Rounds are zero-delay posts, drained before any
  /// between-events boundary, so SaveTo fails loudly if one is pending.
  void SaveTo(snap::SnapshotWriter& w) const override;
  void RestoreFrom(snap::SnapshotReader& r) override;

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);
  /// Grant random idle executors to every app below its demand-capped pool.
  void distribute();
  void schedule_round();

  PoolConfig config_;
  int share_ = 0;
  Rng rng_;
  std::vector<AppHandle*> apps_;
  bool round_pending_ = false;
};

}  // namespace custody::cluster
