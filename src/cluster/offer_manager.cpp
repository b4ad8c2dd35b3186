#include "cluster/offer_manager.h"

#include <stdexcept>
#include <vector>

#include "common/snapshot.h"

namespace custody::cluster {

OfferManager::OfferManager(sim::Simulator& sim, Cluster& cluster,
                           OfferConfig config)
    : ClusterManager(sim, cluster), config_(config) {
  if (config_.expected_apps <= 0) {
    throw std::invalid_argument("OfferManager: expected_apps must be > 0");
  }
  share_ = static_cast<int>(cluster_.num_executors()) / config_.expected_apps;
  if (share_ == 0) share_ = 1;
}

void OfferManager::register_app(AppHandle& app) {
  app.set_share(share_);
  apps_.push_back(&app);
}

void OfferManager::on_demand_changed(AppHandle& /*app*/) { offer_round(); }

void OfferManager::release_executor(ExecutorId exec) {
  ClusterManager::release_executor(exec);
  offer_round();
}

bool OfferManager::any_app_wants_more() const {
  for (const AppHandle* app : apps_) {
    const int held = cluster_.owned_by(app->id());
    if (held < share_ && app->wanted_executors() > held) return true;
  }
  return false;
}

void OfferManager::offer_round() {
  if (apps_.empty()) return;
  const std::size_t idle_count = cluster_.idle_count();
  if (idle_count > 0 && !any_app_wants_more()) {
    // Such a round offers nothing: every app fails the share/demand checks
    // for every idle executor.  Its only state change is the cursor, which
    // the walk advances once per idle executor regardless of offers —
    // replay that and skip the walk.  any_unmet_demand would stay false,
    // so no retry is scheduled either.
    cursor_ = (cursor_ + idle_count) % apps_.size();
    ++stats_.allocation_rounds;
    ++stats_.rounds_skipped;
    return;
  }
  // Snapshot the idle set: grants during the walk mutate the index.
  std::vector<core::ExecutorInfo> idle_snapshot;
  idle_snapshot.reserve(idle_count);
  cluster_.idle_index().append_infos(idle_snapshot);
  bool any_unmet_demand = false;
  for (const core::ExecutorInfo& idle : idle_snapshot) {
    bool accepted = false;
    for (std::size_t k = 0; k < apps_.size() && !accepted; ++k) {
      AppHandle& app = *apps_[(cursor_ + k) % apps_.size()];
      if (cluster_.owned_by(app.id()) >= share_) continue;
      if (app.wanted_executors() <= cluster_.owned_by(app.id())) continue;
      any_unmet_demand = true;
      ++stats_.offers_made;
      if (app.consider_offer(idle.id, idle.node)) {
        grant(app, idle.id);
        accepted = true;
      } else {
        ++stats_.offers_rejected;
      }
    }
    cursor_ = (cursor_ + 1) % apps_.size();
  }
  ++stats_.allocation_rounds;
  // Data-aware applications reject unsuitable nodes; retry later so their
  // delay-scheduling timers eventually make them settle for what exists.
  if (any_unmet_demand && cluster_.idle_count() > 0) schedule_retry();
}

void OfferManager::schedule_retry() {
  if (retry_pending_) return;
  retry_pending_ = true;
  sim_.post(config_.reoffer_interval, [this] {
    retry_pending_ = false;
    offer_round();
  });
  retry_time_ = sim_.now() + config_.reoffer_interval;
  retry_seq_ = sim_.last_event_seq();
}

template <class Self, class Io>
void OfferManager::Fields(Self& self, Io& io) {
  ClusterManager::Fields(self, io);
  io.u64(self.cursor_);
  io.b(self.retry_pending_);
  if (self.retry_pending_) {
    io.f64(self.retry_time_);
    io.u64(self.retry_seq_);
  }
}

void OfferManager::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }

void OfferManager::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
  if (retry_pending_) {
    sim_.rearm_detached_at(retry_time_, retry_seq_, [this] {
      retry_pending_ = false;
      offer_round();
    });
  }
}

}  // namespace custody::cluster
