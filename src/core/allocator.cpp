#include "core/allocator.h"

#include <algorithm>

namespace custody::core {

AllocationResult CustodyAllocator::Allocate(
    const std::vector<AppDemand>& demands,
    const std::vector<ExecutorInfo>& idle, const BlockLocationsFn& locations,
    const AllocatorOptions& options) {
  std::size_t num_executors = 0;
  std::size_t num_nodes = 0;
  for (const ExecutorInfo& e : idle) {
    num_executors = std::max<std::size_t>(num_executors, e.id.value() + 1);
    num_nodes = std::max<std::size_t>(num_nodes, e.node.value() + 1);
  }
  IdleExecutorIndex index(num_executors, num_nodes);
  for (const ExecutorInfo& e : idle) index.add(e.id, e.node);
  return AllocateOnIndex(demands, index, locations, options);
}

AllocationResult CustodyAllocator::AllocateOnIndex(
    const std::vector<AppDemand>& demands, IdleExecutorIndex& index,
    const BlockLocationsFn& locations, const AllocatorOptions& options) {
  IdleExecutorIndex::RoundView pool(index);
  AllocationResult result;
  result.tasks_satisfied.assign(demands.size(), 0);
  result.jobs_satisfied.assign(demands.size(), 0);

  std::vector<AppAllocState> apps;
  std::vector<std::vector<JobDemand>> jobs;
  apps.reserve(demands.size());
  jobs.reserve(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    apps.push_back(MakeAllocState(demands[i], i));
    jobs.push_back(demands[i].jobs);  // mutable working copy
    std::uint64_t unsatisfied = 0;
    for (const JobDemand& job : demands[i].jobs) {
      unsatisfied += job.unsatisfied.size();
    }
    if (unsatisfied > 0) ++result.stats.demand_apps;
    result.stats.demanded_tasks += unsatisfied;
  }

  // INTER-APP FAIRNESS (Algorithm 1): while executors remain, the app with
  // the lowest percentage of local jobs picks next (under the naive-fair
  // ablation, the app holding the fewest executors).
  while (!pool.empty()) {
    const auto pick = options.locality_fair ? PickMinLocality(apps)
                                            : PickFewestHeld(apps);
    if (!pick) break;  // every app is at its budget
    const std::size_t current = *pick;
    ++result.stats.apps_considered;

    const auto before_tasks = apps[current].projected.local_tasks;
    const auto before_jobs = apps[current].projected.local_jobs;
    const auto pass = IntraAppAllocate(
        apps, current, jobs[current], pool, locations,
        [&result](const Assignment& a) { result.assignments.push_back(a); },
        options.priority_jobs, options.locality_fair);
    result.tasks_satisfied[current] +=
        apps[current].projected.local_tasks - before_tasks;
    result.jobs_satisfied[current] +=
        apps[current].projected.local_jobs - before_jobs;

    if (pass.stop != IntraAppStop::kLostMinLocality &&
        pass.executors_taken == 0 &&
        pass.stop != IntraAppStop::kBudgetExhausted) {
      // The app can take more but nothing useful remains for it; taking it
      // out of the round prevents a livelock on the min-locality pick.
      apps[current].budget = apps[current].held;
    }
  }

  result.projected.reserve(apps.size());
  for (const AppAllocState& app : apps) result.projected.push_back(app.projected);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    bool any_demand = false;
    bool any_left = false;
    for (const JobDemand& job : demands[i].jobs) {
      if (!job.unsatisfied.empty()) {
        any_demand = true;
        break;
      }
    }
    if (!any_demand) continue;
    for (const JobDemand& job : jobs[i]) {
      if (!job.unsatisfied.empty()) {
        any_left = true;
        break;
      }
    }
    if (!any_left) ++result.stats.demands_saturated;
  }
  result.stats.executors_scanned = pool.scanned();
  result.stats.grants = result.assignments.size();
  return result;
}

}  // namespace custody::core
