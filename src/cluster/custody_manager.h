// The Custody cluster manager (paper Secs. IV–V).
//
// Allocation is postponed until applications actually submit jobs: every
// demand change (job submitted / job finished / executor released) schedules
// one allocation round in which the idle executors are distributed by the
// two-level CustodyAllocator — inter-application max-min fairness on the
// percentage of local jobs, intra-application fewest-remaining-tasks-first
// priorities.  Rounds triggered at the same simulated instant are coalesced,
// mirroring the plugin that batches proposals to Spark's standalone master.
#pragma once

#include <unordered_map>
#include <vector>

#include "cluster/manager.h"
#include "common/streaming_stats.h"
#include "core/allocator.h"

namespace custody::cluster {

struct CustodyConfig {
  /// σ_i is the cluster divided into this many equal shares.
  int expected_apps = 4;
  /// Ablation switches for the two-level algorithm (both on = the paper).
  core::AllocatorOptions options;
};

class CustodyManager final : public ClusterManager {
 public:
  CustodyManager(sim::Simulator& sim, Cluster& cluster,
                 core::BlockLocationsFn locations, CustodyConfig config);

  [[nodiscard]] const char* name() const override { return "custody"; }

  void register_app(AppHandle& app) override;
  void on_demand_changed(AppHandle& app) override;
  void release_executor(ExecutorId exec) override;

  [[nodiscard]] int share() const { return share_; }

  /// Run one allocation round immediately (tests drive this directly).
  void reallocate_now();

  [[nodiscard]] Summary round_wall() const override;
  /// Every round that runs the allocator grants, so this is the share of
  /// rounds the incremental trigger did not skip.
  [[nodiscard]] double round_yield_fraction() const override;

  /// Stats only: Custody keeps no RNG or cursor, and its rounds are
  /// zero-delay posts, drained before any between-events boundary (SaveTo
  /// fails loudly if one is pending).  The round-wall samples are not
  /// state: a restored manager times only its own rounds.
  void SaveTo(snap::SnapshotWriter& w) const override;
  void RestoreFrom(snap::SnapshotReader& r) override;

 private:
  void schedule_reallocation();
  /// Incremental-trigger predicate: can any registered app still receive
  /// an executor (demand-capped budget above its held count)?  O(apps)
  /// with the O(1) owned_by/wanted_executors counters.
  [[nodiscard]] bool any_app_below_budget() const;
  /// Book a round's wall time and trace it, before its grants.
  void time_round(std::size_t idle_count, std::size_t grants, double wall);

  core::BlockLocationsFn locations_;
  CustodyConfig config_;
  int share_ = 0;
  std::vector<AppHandle*> apps_;  // registration order drives demand order
  /// Grant routing: assignment.app -> handle without scanning apps_ per
  /// assignment (the seed's O(assignments x apps) loop).
  std::unordered_map<AppId, AppHandle*> apps_by_id_;
  bool round_pending_ = false;
  /// Wall seconds per round this process ran; skipped rounds add 0.
  StreamingSummary round_wall_;
};

}  // namespace custody::cluster
