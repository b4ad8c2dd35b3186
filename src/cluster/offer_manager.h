// A Mesos-style offer-based dynamic manager (paper Secs. II, VII).
//
// Idle executors are *offered* to applications round-robin; a data-aware
// application rejects offers from nodes that cannot satisfy locality and
// waits for a better one.  The manager therefore re-offers rejected
// executors after a back-off, paying exactly the repeated-rejection overhead
// the paper criticizes.  Included as the second baseline and for the
// allocation-overhead ablation.
#pragma once

#include <vector>

#include "cluster/manager.h"

namespace custody::cluster {

struct OfferConfig {
  int expected_apps = 4;
  /// Delay before an executor rejected by every application is re-offered.
  SimTime reoffer_interval = 1.0;
};

class OfferManager final : public ClusterManager {
 public:
  OfferManager(sim::Simulator& sim, Cluster& cluster, OfferConfig config);

  [[nodiscard]] const char* name() const override { return "offer"; }

  void register_app(AppHandle& app) override;
  void on_demand_changed(AppHandle& app) override;
  void release_executor(ExecutorId exec) override;

  [[nodiscard]] int share() const { return share_; }

  /// Stats + offer cursor + the pending-retry descriptor.  Unlike the
  /// zero-delay managers a retry can legitimately straddle a snapshot
  /// boundary (reoffer_interval is a real delay), so its (time, seq) is
  /// recorded at post time and the event re-armed on restore under its
  /// original sequence number.
  void SaveTo(snap::SnapshotWriter& w) const override;
  void RestoreFrom(snap::SnapshotReader& r) override;

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);
  /// Offer every idle executor around the table once.
  void offer_round();
  void schedule_retry();
  /// True when some application is below both its share and its demand —
  /// i.e. a round could actually place an offer.
  [[nodiscard]] bool any_app_wants_more() const;

  OfferConfig config_;
  int share_ = 0;
  std::vector<AppHandle*> apps_;
  std::size_t cursor_ = 0;  ///< rotates the first application offered to
  bool retry_pending_ = false;
  /// (time, seq) of the pending retry event, recorded when it is posted so
  /// a snapshot restore can re-arm it deterministically.
  SimTime retry_time_ = 0.0;
  std::uint64_t retry_seq_ = 0;
};

}  // namespace custody::cluster
