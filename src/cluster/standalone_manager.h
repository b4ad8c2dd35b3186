// The baseline: Spark's standalone cluster manager (paper Sec. II, VI).
//
// At registration an application immediately receives its fair share of
// executors, chosen by spreading over worker nodes round-robin ("spreadOut")
// with no knowledge of data placement, and it keeps that static set for its
// whole lifetime.  Locality is then whatever the task scheduler can salvage
// from the randomly-assigned nodes — the behaviour Custody improves on.
#pragma once

#include <cstdint>

#include "cluster/manager.h"
#include "common/rng.h"

namespace custody::cluster {

struct StandaloneConfig {
  /// The cluster is statically partitioned into this many equal shares.
  int expected_apps = 4;
  /// Spark's "spreadOut" mode: sweep nodes round-robin so an application
  /// lands on as many distinct nodes as possible.  When false (default,
  /// matching the paper's "randomly allocate available resources"), the
  /// share is drawn uniformly from the idle executors, so an application
  /// may receive several executors on one node and none on most.
  bool spread_out = false;
  /// Seed for the random allocation order.
  std::uint64_t seed = 1;
};

class StandaloneManager final : public ClusterManager {
 public:
  StandaloneManager(sim::Simulator& sim, Cluster& cluster,
                    StandaloneConfig config);

  [[nodiscard]] const char* name() const override { return "standalone"; }

  void register_app(AppHandle& app) override;
  void on_demand_changed(AppHandle& app) override;

  [[nodiscard]] int share() const { return share_; }

  /// Stats + allocation RNG + the spreadOut node cursor; share_ is
  /// config-derived and rebuilt by the constructor.
  void SaveTo(snap::SnapshotWriter& w) const override;
  void RestoreFrom(snap::SnapshotReader& r) override;

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);
  void allocate_spread(AppHandle& app);
  void allocate_random(AppHandle& app);

  StandaloneConfig config_;
  int share_ = 0;
  Rng rng_;
  /// Rotates so consecutive registrations start from different nodes.
  std::size_t next_node_ = 0;
};

}  // namespace custody::cluster
