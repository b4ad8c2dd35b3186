// Algorithm 2 — data-aware intra-application allocation.
//
// Given the executors an application may still claim, choose the subset that
// maximizes the number of *local jobs* (paper Sec. IV-B).  Jobs are served
// in ascending order of unsatisfied input tasks — the greedy heaviest-edge
// rule of the 2-approximation to constrained bipartite matching — and a
// job's tasks are all satisfied before moving on, so no job is left
// straggling with partial locality when full locality was achievable.
#pragma once

#include <functional>
#include <vector>

#include "core/idle_index.h"
#include "core/inter_app.h"
#include "core/model.h"

namespace custody::core {

/// Outcome of one intra-application pass.
enum class IntraAppStop {
  kBudgetExhausted,   ///< ζ_i reached σ_i
  kLostMinLocality,   ///< another app now has lower locality (back to Alg. 1)
  kNoMoreExecutors,   ///< pool drained
  kDemandSatisfied,   ///< every unsatisfied task got a local executor
};

struct IntraAppPassResult {
  IntraAppStop stop = IntraAppStop::kDemandSatisfied;
  int executors_taken = 0;
};

/// Run one Algorithm-2 pass for `apps[current]`:
///  * phase 1 — serve jobs in fewest-unsatisfied-tasks-first order, claiming
///    a local executor per task, re-checking MINLOCALITY after every claim;
///  * phase 2 — backfill with arbitrary idle executors up to the budget
///    (line 17-20 of the pseudocode), so the app is never starved of
///    compute even when locality is impossible.
///
/// `jobs` is the mutable copy of the app's pending jobs (tasks are erased
/// from `unsatisfied` as they are satisfied).  `pool` is the round's claim
/// state over the idle index.  `emit` receives every assignment as it
/// happens.
///
/// With `locality_fair`, the pass yields back to the inter-application loop
/// as soon as PickMinLocality(apps) no longer picks `current`.  Off (the
/// naive-fair ablation), every grant yields back — a strict round-robin.
IntraAppPassResult IntraAppAllocate(
    std::vector<AppAllocState>& apps, std::size_t current,
    std::vector<JobDemand>& jobs, IdleExecutorIndex::RoundView& pool,
    const BlockLocationsFn& locations,
    const std::function<void(const Assignment&)>& emit, bool priority_jobs,
    bool locality_fair);

/// The job-priority comparator (fewest unsatisfied input tasks first;
/// deterministic tie-break by job uid — the paper breaks ties randomly).
bool JobPriorityLess(const JobDemand& a, const JobDemand& b);

}  // namespace custody::core
