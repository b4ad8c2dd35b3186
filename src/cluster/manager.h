// The cluster-manager <-> application contract.
//
// An application registers once and afterwards only signals that its demand
// changed (jobs submitted or finished) or hands idle executors back; the
// manager decides which executors each application holds and notifies the
// application through grant/revoke callbacks.  Applications never pick
// worker nodes themselves — exactly the regime the paper studies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/model.h"
#include "sim/simulator.h"

namespace custody::obs {
class Tracer;
}

namespace custody::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace custody::snap

namespace custody::cluster {

/// The manager-facing side of an application (implemented by
/// app::Application; mock implementations are used in unit tests).
class AppHandle {
 public:
  virtual ~AppHandle() = default;

  [[nodiscard]] virtual AppId id() const = 0;

  /// Jobs whose input tasks are not yet all launched, with the tasks that
  /// cannot run locally on currently held executors (Custody's demand
  /// signal, gathered from the NameNode before tasks are compiled).
  [[nodiscard]] virtual std::vector<core::JobDemand> pending_demand()
      const = 0;

  /// Executors the application could keep busy right now (ready + running
  /// tasks).  Managers cap grants at min(fair share, this).
  [[nodiscard]] virtual int wanted_executors() const = 0;

  /// Locality achieved so far, for Algorithm 1's MINLOCALITY ordering.
  [[nodiscard]] virtual core::LocalityStats locality() const = 0;

  /// The manager's fair share for this app (σ_i), told at registration.
  virtual void set_share(int share) = 0;

  /// The app now holds `execs` (ascending): one call per grant, be it one
  /// executor of a round or a whole registration share.
  virtual void on_executors_granted(std::span<const ExecutorId> execs) = 0;
  /// A one-executor grant.
  void on_executor_granted(ExecutorId exec) {
    on_executors_granted({&exec, 1});
  }

  /// The node under `exec` died; any work running there is gone.  Default:
  /// nothing (mocks and simple handles may ignore failures).
  virtual void on_executor_lost(ExecutorId exec) { (void)exec; }

  /// Mesos-style resource offer; returns true to accept.  Only the
  /// OfferManager calls this.
  virtual bool consider_offer(ExecutorId exec, NodeId node) = 0;
};

/// Counters every manager maintains (offer churn matters for Sec. II-A).
/// `allocation_rounds` counts every round, including rounds that granted
/// nothing — `executors_granted` separates the yield.
struct ManagerStats {
  std::uint64_t allocation_rounds = 0;
  std::uint64_t executors_granted = 0;
  std::uint64_t executors_released = 0;
  std::uint64_t offers_made = 0;
  std::uint64_t offers_rejected = 0;
  /// Wall-clock seconds inside the allocator (Custody only).  Observation,
  /// not simulation state: snapshots leave it out, so a restored run counts
  /// only the rounds it ran itself.
  double allocation_wall_seconds = 0.0;
  std::uint64_t executors_scanned = 0;     ///< candidates enumerated, total
  std::uint64_t apps_considered = 0;       ///< inter-app picks, total
  /// Rounds the incremental trigger short-circuited because no app sat
  /// below its demand-capped budget (counted in allocation_rounds too).
  std::uint64_t rounds_skipped = 0;
  // Round *input* sizes, cumulative — what drove each round's cost.
  std::uint64_t demand_apps = 0;       ///< apps with >=1 unsatisfied task
  std::uint64_t demanded_tasks = 0;    ///< unsatisfied input tasks
  std::uint64_t demands_saturated = 0; ///< demands fully served by a round
};

class ClusterManager {
 public:
  ClusterManager(sim::Simulator& sim, Cluster& cluster)
      : sim_(sim), cluster_(cluster) {}
  virtual ~ClusterManager() = default;

  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  virtual void register_app(AppHandle& app) = 0;

  /// Jobs were submitted to `app` or finished inside it.
  virtual void on_demand_changed(AppHandle& app) = 0;

  /// The application no longer needs `exec`; ownership returns to the pool.
  /// (The paper adds exactly this message type to Spark's driver.)
  virtual void release_executor(ExecutorId exec);

  [[nodiscard]] const ManagerStats& stats() const { return stats_; }

  /// Wall-clock seconds per timed allocation round.  The count is every
  /// round of the run, restores included (`allocation_rounds`); the moments
  /// cover only the rounds this process timed.  Empty for managers without
  /// timed rounds (all but Custody).
  [[nodiscard]] virtual Summary round_wall() const { return {}; }
  /// Fraction of those rounds that granted at least one executor; 0 for
  /// managers without timed rounds.
  [[nodiscard]] virtual double round_yield_fraction() const { return 0.0; }

  /// Optional span tracing (null disables; the default).  Grants are
  /// recorded as instants; tracing never changes what the manager decides.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Serialize the manager's dynamic state.  The base class covers the
  /// stats counters; derived managers append their own RNG streams,
  /// cursors and pending-event descriptors.  Config-derived members
  /// (shares, app registrations) are rebuilt by re-running setup, not
  /// serialized.  Managers whose rounds are zero-delay posts must be
  /// saved at a between-events boundary, where no round is pending.
  virtual void SaveTo(snap::SnapshotWriter& w) const;
  virtual void RestoreFrom(snap::SnapshotReader& r);

 protected:
  /// The base field list (the stats counters, allocation_wall_seconds
  /// left out); a derived manager's own field list starts with it.
  template <class Self, class Io>
  static void Fields(Self& self, Io& io) {
    auto& s = self.stats_;
    for (auto* counter : {&s.allocation_rounds, &s.executors_granted,
                          &s.executors_released, &s.offers_made,
                          &s.offers_rejected}) {
      io.u64(*counter);
    }
    for (auto* counter : {&s.executors_scanned, &s.apps_considered,
                          &s.rounds_skipped, &s.demand_apps,
                          &s.demanded_tasks, &s.demands_saturated}) {
      io.u64(*counter);
    }
  }

  /// Assign `execs` in the cluster ledger and notify the application once.
  /// Trace instants follow the given order; the cluster and the app get
  /// the ids ascending.  An empty grant does nothing.
  void grant(AppHandle& app, std::span<const ExecutorId> execs);
  void grant(AppHandle& app, ExecutorId exec) { grant(app, {&exec, 1}); }

  /// Demand-capped budget: min(share, running + ready work).
  [[nodiscard]] static int effective_budget(const AppHandle& app, int share);

  sim::Simulator& sim_;
  Cluster& cluster_;
  ManagerStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace custody::cluster
