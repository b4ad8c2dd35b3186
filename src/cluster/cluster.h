// Physical cluster state: worker nodes and the executor processes on them.
//
// Matches the paper's system model (Sec. III-A): each worker node launches a
// fixed number of identical executors (two per node in the evaluation); an
// executor runs one task at a time and is owned by at most one application
// at any moment.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "core/idle_index.h"
#include "core/model.h"

namespace custody::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace custody::snap

namespace custody::cluster {

struct WorkerConfig {
  int executors_per_node = 2;           ///< paper Sec. VI-A
  int cores = 8;                        ///< informational
  double disk_bps = units::MBps(400.0); ///< local (SSD) sequential read rate
  double memory_bps = units::MBps(2000.0); ///< cached (in-memory) read rate
};

struct Executor {
  ExecutorId id;
  NodeId node;
  AppId owner;          ///< invalid when unallocated
  /// Running a task right now.  Flip via Cluster::set_busy — it keeps the
  /// per-app free-held sets coherent; writing the flag directly leaves
  /// them stale.
  bool busy = false;

  [[nodiscard]] bool allocated() const { return owner.valid(); }
};

class Cluster {
 public:
  Cluster(std::size_t num_nodes, WorkerConfig config);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_executors() const { return executors_.size(); }
  [[nodiscard]] const WorkerConfig& config() const { return config_; }

  [[nodiscard]] Executor& executor(ExecutorId id);
  [[nodiscard]] const Executor& executor(ExecutorId id) const;
  [[nodiscard]] const std::vector<Executor>& executors() const {
    return executors_;
  }
  [[nodiscard]] NodeId node_of(ExecutorId id) const {
    return executor(id).node;
  }
  [[nodiscard]] double disk_bps(NodeId) const { return config_.disk_bps; }

  /// Relative compute speed of a node (1.0 = nominal).  Heterogeneous or
  /// degraded machines make stragglers — what speculative execution fights.
  [[nodiscard]] double node_speed(NodeId node) const;
  void set_node_speed(NodeId node, double speed);

  /// Hand unallocated executors, ids strictly ascending, to an
  /// application.  Throws before any changes hands when one is allocated,
  /// on a failed node or out of order.
  void assign(std::span<const ExecutorId> ids, AppId app);
  void assign(ExecutorId id, AppId app) { assign({&id, 1}, app); }
  /// Return an executor to the unallocated pool (must not be busy).
  void release(ExecutorId id);

  // --- failure injection ---------------------------------------------------
  /// Kill a worker node: its executors are released (owner and busy flags
  /// cleared) and can never be allocated again.
  void fail_node(NodeId node);
  [[nodiscard]] bool node_alive(NodeId node) const;
  [[nodiscard]] bool executor_alive(ExecutorId id) const;
  [[nodiscard]] std::size_t alive_executor_count() const;
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;

  /// Executors not owned by any application, from an O(executors) ledger
  /// scan.  Allocation reads `idle_index()`; tests use this scan as the
  /// index's oracle.
  [[nodiscard]] std::vector<core::ExecutorInfo> idle_executors() const;
  [[nodiscard]] std::size_t idle_count() const { return idle_index_.count(); }
  /// O(1): maintained incrementally on assign/release/fail_node.
  [[nodiscard]] int owned_by(AppId app) const;

  /// Persistent idle-executor index (idle = unallocated on a live node),
  /// kept in sync by assign/release/fail_node.  Allocation rounds borrow a
  /// RoundView; its content always equals `idle_executors()`.
  [[nodiscard]] core::IdleExecutorIndex& idle_index() { return idle_index_; }
  [[nodiscard]] const core::IdleExecutorIndex& idle_index() const {
    return idle_index_;
  }
  /// Lowest-id idle executor on `node`; invalid when none.
  [[nodiscard]] ExecutorId first_idle_on(NodeId node) const {
    return idle_index_.first_on(node);
  }
  /// Executor ids `app` currently holds, ascending (== an id-order ledger
  /// scan filtered on owner).  Appends to `out`.
  void held_executors(AppId app, std::vector<ExecutorId>& out) const;
  /// True when `app` holds at least one executor on `node`.  O(1).
  [[nodiscard]] bool holds_on(AppId app, NodeId node) const;
  /// Dense per-node counts of executors `app` holds (index = node id), for
  /// O(1) coverage membership in hot per-task checks; nullptr when the app
  /// has never held an executor (an all-zero vector is a valid return for
  /// an app that held and released everything).
  [[nodiscard]] const std::vector<int>* held_counts(AppId app) const;

  /// Flip an executor's busy flag, keeping the owner's free-held and
  /// free-watched sets in sync.  No-op when the flag already has that value.
  void set_busy(ExecutorId id, bool busy);
  /// Executor ids `app` holds that are not busy, ascending (== the held
  /// sweep's survivors of the owner/busy re-check), maintained
  /// incrementally on assign/release/set_busy/fail_node.  Appends to `out`.
  void free_held(AppId app, std::vector<ExecutorId>& out) const;
  /// Size of `app`'s free-held set.  O(1).
  [[nodiscard]] std::size_t free_held_count(AppId app) const;
  /// Successor query on the free-held set: the lowest free executor `app`
  /// holds with id >= `from`; invalid when none.  O(log free).
  [[nodiscard]] ExecutorId next_free_held(AppId app,
                                          ExecutorId::value_type from) const;

  /// Mark `node` watched or not by `app`.  The free-watched set is the
  /// members of `app`'s free-held set on the nodes it watches; an
  /// application watches the nodes where it has local ready input, so
  /// its kick finds the executors that can launch there without
  /// enumerating either side.  O(executors_per_node + free-watched).
  void set_watched(AppId app, NodeId node, bool watched);
  /// Successor query on the free-watched set, as next_free_held.
  [[nodiscard]] ExecutorId next_free_watched(
      AppId app, ExecutorId::value_type from) const;
  /// Size of `app`'s free-watched set.  O(1).
  [[nodiscard]] std::size_t free_watched_count(AppId app) const;

  /// Serialize the ownership ledger: node liveness/speeds plus each
  /// executor's {owner, busy}.  Everything else (idle index, held sets,
  /// free sets, per-node counts) is derived, so RestoreFrom rebuilds it by
  /// replaying fail_node/assign/set_busy against a reset ledger and then
  /// cross-checks the rebuilt idle count against the saved one.  Watched
  /// nodes are the applications' state: RestoreFrom clears them, and each
  /// application's restore watches its nodes again.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);
  /// Restore: reset the ledger to the post-construction state, then replay
  /// the node liveness and executor {owner, busy} just read into it.
  void replay_restored_ledger();
  /// Fill the empty idle index with every executor, in one pass.
  void index_all_idle();

  /// What the cluster tracks per application, all derived from the
  /// executors' {owner, busy} flags plus the watched nodes.
  struct AppLedger {
    std::vector<ExecutorId::value_type> held;  ///< ascending
    std::vector<ExecutorId::value_type> free;  ///< held and not busy
    /// Free on a watched node, ascending.
    std::vector<ExecutorId::value_type> free_watched;
    /// Per-node held counts, sized num_nodes_ on the first grant.
    std::vector<int> held_counts;
    /// Per-node watched flags, sized num_nodes_ on the first watch.
    std::vector<bool> watched;

    [[nodiscard]] bool watches(NodeId node) const {
      return !watched.empty() && watched[node.value()];
    }
  };

  [[nodiscard]] const AppLedger* ledger(AppId app) const;
  /// Remove `exec` from its owner's ledger (owner must be valid).
  void drop_ownership(const Executor& exec);
  /// `exec`, owned, became free (true) or busy / unowned (false).
  static void set_free(AppLedger& ledger, const Executor& exec, bool free);

  std::size_t num_nodes_;
  WorkerConfig config_;
  std::vector<Executor> executors_;
  std::vector<bool> node_alive_;
  std::vector<double> node_speed_;
  core::IdleExecutorIndex idle_index_;
  /// app -> its ledger; created on the first grant or watch and kept.
  std::unordered_map<AppId::value_type, AppLedger> apps_;
};

}  // namespace custody::cluster
