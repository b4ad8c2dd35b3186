#include "cluster/manager.h"

#include <algorithm>
#include <vector>

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

void ClusterManager::grant(AppHandle& app, std::span<const ExecutorId> execs) {
  if (execs.empty()) return;
  std::vector<ExecutorId> sorted;
  if (!std::is_sorted(execs.begin(), execs.end())) {
    sorted.assign(execs.begin(), execs.end());
    std::sort(sorted.begin(), sorted.end());
  }
  const std::span<const ExecutorId> ids =
      sorted.empty() ? execs : std::span<const ExecutorId>(sorted);
  cluster_.assign(ids, app.id());
  stats_.executors_granted += ids.size();
  if (tracer_ != nullptr) {
    for (const ExecutorId exec : execs) {
      tracer_->instant({.app = obs::IdOf(app.id()),
                        .id = obs::IdOf(exec),
                        .node = obs::IdOf(cluster_.node_of(exec)),
                        .kind = obs::EventKind::kGrant});
    }
  }
  app.on_executors_granted(ids);
}

int ClusterManager::effective_budget(const AppHandle& app, int share) {
  return std::min(share, app.wanted_executors());
}

}  // namespace custody::cluster
