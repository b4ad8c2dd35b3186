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
