// The Custody allocator: the two-level decision procedure of Sec. IV.
//
// One `Allocate` round distributes the currently idle executors across the
// active applications: the inter-application level (Algorithm 1) repeatedly
// hands the pick to the least-localized application; the intra-application
// level (Algorithm 2) lets that application claim executors job-by-job in
// fewest-remaining-tasks-first order.  The output is the executor -> app
// assignment y plus per-task placement hints z.
#pragma once

#include <cstdint>
#include <vector>

#include "core/idle_index.h"
#include "core/inter_app.h"
#include "core/intra_app.h"
#include "core/model.h"

namespace custody::core {

/// Ablation switches: each disables one of Custody's two key ideas and
/// substitutes the naive strategy the paper argues against.
struct AllocatorOptions {
  /// Algorithm 1 on (true): least-localized application picks first.
  /// Off: plain executor-count fairness (fewest held executors first) —
  /// the "naive fair" strategy of Fig. 3.
  bool locality_fair = true;
  /// Algorithm 2 on (true): fewest-remaining-tasks-first, whole job before
  /// the next.  Off: round-robin one task per job — the "fairness-based"
  /// intra-application split of Figs. 4–5.
  bool priority_jobs = true;
};

/// What one allocation round cost (wall time is measured by the manager
/// around the whole round).
struct RoundStats {
  /// Candidates enumerated from the idle index across every claim/has_on
  /// during the round.
  std::uint64_t executors_scanned = 0;
  /// Inter-application picks taken (Algorithm 1 loop iterations).
  std::uint64_t apps_considered = 0;
  /// Executors handed out (== assignments.size(), for convenience).
  std::uint64_t grants = 0;
  /// Round *input* size: demands that came in with >=1 unsatisfied task.
  std::uint64_t demand_apps = 0;
  /// Round input size: total unsatisfied input tasks across all demands.
  std::uint64_t demanded_tasks = 0;
  /// Demands whose unsatisfied tasks were all given local executors.
  std::uint64_t demands_saturated = 0;
};

struct AllocationResult {
  std::vector<Assignment> assignments;
  /// Per input demand (same order): projected locality after the round.
  std::vector<LocalityStats> projected;
  /// Per input demand: input tasks newly given a data-local executor.
  std::vector<int> tasks_satisfied;
  /// Per input demand: pending jobs that became fully local this round.
  std::vector<int> jobs_satisfied;
  /// Work counters for this round.
  RoundStats stats;
};

class CustodyAllocator {
 public:
  /// Run one round over an explicit idle set of distinct executors: builds
  /// a round-local IdleExecutorIndex from `idle` (sized by its largest
  /// executor and node ids) and runs AllocateOnIndex on it.  Demands are
  /// not mutated.  Deterministic for identical inputs.
  [[nodiscard]] static AllocationResult Allocate(
      const std::vector<AppDemand>& demands,
      const std::vector<ExecutorInfo>& idle, const BlockLocationsFn& locations,
      const AllocatorOptions& options = {});

  /// Run one round against a persistent idle index — no idle-set copy, no
  /// per-round rebuild.  The index itself is not mutated: claims live in a
  /// round-scoped view, and the caller applies `assignments` afterwards
  /// (via Cluster::assign, which updates the index).
  [[nodiscard]] static AllocationResult AllocateOnIndex(
      const std::vector<AppDemand>& demands, IdleExecutorIndex& index,
      const BlockLocationsFn& locations, const AllocatorOptions& options = {});
};

}  // namespace custody::core
