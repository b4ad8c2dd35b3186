#include "core/intra_app.h"

#include <algorithm>
#include <cassert>

namespace custody::core {

bool JobPriorityLess(const JobDemand& a, const JobDemand& b) {
  if (a.unsatisfied.size() != b.unsatisfied.size()) {
    return a.unsatisfied.size() < b.unsatisfied.size();
  }
  return a.job < b.job;
}

namespace {

/// ALLOCATEEXECUTOR (Algorithm 2, lines 1-6): record the assignment, update
/// the projected state, and report whether the app lost its pick position
/// (TRUE means "return to the inter-application loop").  Under the naive
/// executor-count fairness ablation (locality_fair off) every grant yields
/// back to the outer loop, producing a strict round-robin over applications.
bool AllocateExecutor(std::vector<AppAllocState>& apps, std::size_t current,
                      ExecutorId exec, TaskUid hint,
                      const std::function<void(const Assignment&)>& emit,
                      bool locality_fair) {
  AppAllocState& app = apps[current];
  emit(Assignment{exec, app.app, hint});
  app.held += 1;
  return !locality_fair || PickMinLocality(apps) != current;
}

/// Claim a data-local executor for one task of `job`; returns whether any
/// progress was made and sets `lost_min` when control must return to the
/// inter-application loop.
bool ServeOneTask(std::vector<AppAllocState>& apps, std::size_t current,
                  JobDemand& job, IdleExecutorIndex::RoundView& pool,
                  const BlockLocationsFn& locations,
                  const std::function<void(const Assignment&)>& emit,
                  IntraAppPassResult& result, bool locality_fair,
                  bool& lost_min) {
  AppAllocState& app = apps[current];
  auto& tasks = job.unsatisfied;
  for (auto it = tasks.begin(); it != tasks.end(); ++it) {
    const ExecutorId exec = pool.claim_on(locations(it->block));
    if (!exec.valid()) continue;
    const TaskUid hint = it->task;
    tasks.erase(it);
    app.projected.local_tasks += 1;
    if (tasks.empty()) app.projected.local_jobs += 1;
    ++result.executors_taken;
    lost_min =
        AllocateExecutor(apps, current, exec, hint, emit, locality_fair);
    return true;
  }
  return false;
}

}  // namespace

IntraAppPassResult IntraAppAllocate(
    std::vector<AppAllocState>& apps, std::size_t current,
    std::vector<JobDemand>& jobs, IdleExecutorIndex::RoundView& pool,
    const BlockLocationsFn& locations,
    const std::function<void(const Assignment&)>& emit, bool priority_jobs,
    bool locality_fair) {
  AppAllocState& app = apps[current];
  IntraAppPassResult result;

  if (priority_jobs) {
    std::sort(jobs.begin(), jobs.end(), JobPriorityLess);
    // Phase 1: satisfy all of the highest-priority job's tasks before
    // moving on — perfect locality for few jobs beats partial locality for
    // many.
    for (JobDemand& job : jobs) {
      // Early-out: an empty pool can't serve any remaining demand, and the
      // fall-through stop computation below returns the same verdict the
      // fruitless continuation would (kBudgetExhausted wins over
      // kNoMoreExecutors, matching the in-loop return priority).
      if (pool.empty()) break;
      auto& tasks = job.unsatisfied;
      for (auto it = tasks.begin(); it != tasks.end();) {
        if (!app.can_take_more()) {
          result.stop = IntraAppStop::kBudgetExhausted;
          return result;
        }
        if (pool.empty()) break;
        const ExecutorId exec = pool.claim_on(locations(it->block));
        if (!exec.valid()) {
          ++it;  // no idle executor stores this block; leave it unsatisfied
          continue;
        }
        const TaskUid hint = it->task;
        it = tasks.erase(it);
        app.projected.local_tasks += 1;
        if (tasks.empty()) app.projected.local_jobs += 1;
        ++result.executors_taken;
        if (AllocateExecutor(apps, current, exec, hint, emit,
                             locality_fair)) {
          result.stop = IntraAppStop::kLostMinLocality;
          return result;
        }
      }
    }
  } else {
    // Ablation (Figs. 4-5 "fairness-based" split): sweep jobs round-robin
    // in submission order, one task per job per sweep, so every job gets a
    // slice of the locality and none gets all of it.
    std::sort(jobs.begin(), jobs.end(),
              [](const JobDemand& a, const JobDemand& b) {
                return a.job < b.job;
              });
    bool progress = true;
    while (progress) {
      progress = false;
      for (JobDemand& job : jobs) {
        if (!app.can_take_more()) {
          result.stop = IntraAppStop::kBudgetExhausted;
          return result;
        }
        if (pool.empty()) {  // see the phase-1 early-out note
          progress = false;
          break;
        }
        bool lost_min = false;
        if (ServeOneTask(apps, current, job, pool, locations, emit, result,
                         locality_fair, lost_min)) {
          progress = true;
          if (lost_min) {
            result.stop = IntraAppStop::kLostMinLocality;
            return result;
          }
        }
      }
    }
  }

  // Phase 2: backfill with whatever is idle so tasks that cannot be local
  // still get compute (they will read remotely, possibly after a delay-
  // scheduling wait).  The budget passed by the manager is demand-capped,
  // so this cannot hoard executors the app has no tasks for.
  while (app.can_take_more() && !pool.empty()) {
    const ExecutorId exec = pool.claim_any();
    assert(exec.valid());
    ++result.executors_taken;
    if (AllocateExecutor(apps, current, exec, kNoTask, emit, locality_fair)) {
      result.stop = IntraAppStop::kLostMinLocality;
      return result;
    }
  }

  if (!app.can_take_more()) {
    result.stop = IntraAppStop::kBudgetExhausted;
  } else if (pool.empty()) {
    result.stop = IntraAppStop::kNoMoreExecutors;
  } else {
    result.stop = IntraAppStop::kDemandSatisfied;
  }
  return result;
}

}  // namespace custody::core
