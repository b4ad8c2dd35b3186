// Algorithm 1 — data-aware inter-application allocation ordering.
//
// MINLOCALITY sorts applications by ascending percentage of local jobs,
// breaking ties by percentage of local tasks (paper Sec. IV-A).  The
// application with the least locality chooses from the idle executors first;
// the sort is re-evaluated after every single allocation, so hot executors
// end up spread across competing applications (the Fig.-3 scenario).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/model.h"

namespace custody::core {

/// Mutable per-application view used while an allocation round runs: the
/// projected stats treat jobs *being allocated in this round* as part of the
/// totals, with their tasks becoming local as executors are assigned.
struct AppAllocState {
  AppId app;
  int budget = 0;
  int held = 0;
  /// Locality projected over history + this round's pending jobs.
  LocalityStats projected;
  /// Index into the caller's demand vector.
  std::size_t demand_index = 0;

  /// True while the app may still receive executors this round.
  [[nodiscard]] bool can_take_more() const { return held < budget; }
};

/// Comparison used by MINLOCALITY: (job %, task %, app id) ascending.
/// App ids break the paper's unspecified ties deterministically.
bool MinLocalityLess(const AppAllocState& a, const AppAllocState& b);

/// Index of the app that should pick next among those that can take more
/// executors; nullopt when every app is at budget.  A linear argmin (the
/// lower index wins a full tie): rounds hold a handful of applications, so
/// the pick and the per-grant re-check of Algorithm 2 rescan them all.
std::optional<std::size_t> PickMinLocality(
    const std::vector<AppAllocState>& apps);

/// The data-unaware counterfactual (Fig. 3's "naive fair"): pick the app
/// holding the fewest executors, regardless of locality.
std::optional<std::size_t> PickFewestHeld(
    const std::vector<AppAllocState>& apps);

/// Initialize allocation state from a demand: projected totals include the
/// pending jobs/tasks, all initially non-local.
AppAllocState MakeAllocState(const AppDemand& demand, std::size_t index);

}  // namespace custody::core
