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
#include <set>
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
/// executors; nullopt when every app is at budget.  The linear argmin that
/// MinLocalityTracker maintains incrementally (kept as its test oracle).
std::optional<std::size_t> PickMinLocality(
    const std::vector<AppAllocState>& apps);

/// The data-unaware counterfactual (Fig. 3's "naive fair"): pick the app
/// holding the fewest executors, regardless of locality.
std::optional<std::size_t> PickFewestHeld(
    const std::vector<AppAllocState>& apps);

/// Initialize allocation state from a demand: projected totals include the
/// pending jobs/tasks, all initially non-local.
AppAllocState MakeAllocState(const AppDemand& demand, std::size_t index);

/// Incremental MINLOCALITY index: an ordered set over the apps that can
/// still take executors, keyed exactly like PickMinLocality's linear argmin
/// ((job %, task %, app id) ascending, then vector index so duplicate app
/// ids keep the scan's first-wins behaviour).  Picking the next app and the
/// per-grant ALLOCATEEXECUTOR re-check both become O(log apps) instead of
/// re-scanning every application — an O(apps) rescan per grant would make
/// a round O(executors x apps).
///
/// Contract: an app's key fields (projected stats, held, budget) may only
/// be mutated while that app is detached via remove(); everything else in
/// the set must stay unchanged, which holds because an intra-app pass only
/// ever mutates the app it serves.
class MinLocalityTracker {
 public:
  explicit MinLocalityTracker(const std::vector<AppAllocState>& apps);

  /// Detach `index` before mutating apps[index] (no-op when absent).
  void remove(std::size_t index);
  /// Re-attach `index` after mutation iff it can still take executors.
  void restore(std::size_t index);

  /// The app PickMinLocality would choose among the attached apps.
  [[nodiscard]] std::optional<std::size_t> min() const;

  /// The ALLOCATEEXECUTOR re-check of Algorithm 2 (line 5) for a
  /// *detached* index: true iff re-attaching it would make it the pick.
  /// Used after every single allocation.
  [[nodiscard]] bool would_pick(std::size_t index) const;

 private:
  struct IndexLess {
    const std::vector<AppAllocState>* apps;
    bool operator()(std::size_t a, std::size_t b) const;
  };

  const std::vector<AppAllocState>* apps_;
  std::set<std::size_t, IndexLess> ordered_;
};

}  // namespace custody::core
