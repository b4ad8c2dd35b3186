#include "core/inter_app.h"

namespace custody::core {

bool MinLocalityLess(const AppAllocState& a, const AppAllocState& b) {
  const double aj = a.projected.job_fraction();
  const double bj = b.projected.job_fraction();
  if (aj != bj) return aj < bj;
  const double at = a.projected.task_fraction();
  const double bt = b.projected.task_fraction();
  if (at != bt) return at < bt;
  return a.app < b.app;
}

std::optional<std::size_t> PickMinLocality(
    const std::vector<AppAllocState>& apps) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!apps[i].can_take_more()) continue;
    if (!best || MinLocalityLess(apps[i], apps[*best])) best = i;
  }
  return best;
}

std::optional<std::size_t> PickFewestHeld(
    const std::vector<AppAllocState>& apps) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!apps[i].can_take_more()) continue;
    if (!best || apps[i].held < apps[*best].held ||
        (apps[i].held == apps[*best].held && apps[i].app < apps[*best].app)) {
      best = i;
    }
  }
  return best;
}

bool MinLocalityTracker::IndexLess::operator()(std::size_t a,
                                               std::size_t b) const {
  const AppAllocState& sa = (*apps)[a];
  const AppAllocState& sb = (*apps)[b];
  if (MinLocalityLess(sa, sb)) return true;
  if (MinLocalityLess(sb, sa)) return false;
  return a < b;  // duplicate keys: the linear scan kept the first index
}

MinLocalityTracker::MinLocalityTracker(const std::vector<AppAllocState>& apps)
    : apps_(&apps), ordered_(IndexLess{&apps}) {
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (apps[i].can_take_more()) ordered_.insert(i);
  }
}

void MinLocalityTracker::remove(std::size_t index) { ordered_.erase(index); }

void MinLocalityTracker::restore(std::size_t index) {
  if ((*apps_)[index].can_take_more()) ordered_.insert(index);
}

std::optional<std::size_t> MinLocalityTracker::min() const {
  if (ordered_.empty()) return std::nullopt;
  return *ordered_.begin();
}

bool MinLocalityTracker::would_pick(std::size_t index) const {
  const AppAllocState& self = (*apps_)[index];
  if (!self.can_take_more()) return false;
  if (ordered_.empty()) return true;
  const std::size_t best = *ordered_.begin();
  const AppAllocState& other = (*apps_)[best];
  // Replicate the linear argmin's first-wins semantics on full key ties.
  if (MinLocalityLess(self, other)) return true;
  if (MinLocalityLess(other, self)) return false;
  return index < best;
}

AppAllocState MakeAllocState(const AppDemand& demand, std::size_t index) {
  AppAllocState state;
  state.app = demand.app;
  state.budget = demand.budget;
  state.held = demand.held;
  state.projected = demand.locality;
  state.demand_index = index;
  for (const JobDemand& job : demand.jobs) {
    state.projected.total_jobs += 1;
    state.projected.total_tasks += job.total_tasks;
    // Tasks already satisfiable by held executors count as local now.
    state.projected.local_tasks += job.satisfied_tasks();
    if (job.unsatisfied.empty() && job.total_tasks > 0) {
      state.projected.local_jobs += 1;
    }
  }
  return state;
}

}  // namespace custody::core
