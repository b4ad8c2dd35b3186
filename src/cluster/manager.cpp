#include "cluster/manager.h"

#include <algorithm>

#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::cluster {

void ClusterManager::SaveTo(snap::SnapshotWriter& w) const {
  Fields(*this, w);
}

void ClusterManager::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
}

void ClusterManager::release_executor(ExecutorId exec) {
  cluster_.release(exec);
  ++stats_.executors_released;
}

void ClusterManager::grant(AppHandle& app, ExecutorId exec) {
  cluster_.assign(exec, app.id());
  ++stats_.executors_granted;
  if (tracer_ != nullptr) {
    tracer_->instant({.app = obs::IdOf(app.id()),
                      .id = obs::IdOf(exec),
                      .node = obs::IdOf(cluster_.node_of(exec)),
                      .kind = obs::EventKind::kGrant});
  }
  app.on_executor_granted(exec);
}

int ClusterManager::effective_budget(const AppHandle& app, int share) {
  return std::min(share, app.wanted_executors());
}

}  // namespace custody::cluster
