// Physical cluster state: worker nodes and the executor processes on them.
//
// Matches the paper's system model (Sec. III-A): each worker node launches a
// fixed number of identical executors (two per node in the evaluation); an
// executor runs one task at a time and is owned by at most one application
// at any moment.
#pragma once

#include <cstddef>
#include <map>
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

  /// Hand an unallocated executor to an application.
  void assign(ExecutorId id, AppId app);
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
  /// Nodes on which `app` currently holds executors, ascending and unique —
  /// what a sorted scan of the ownership ledger would produce, maintained
  /// incrementally.  Appends to `out` (callers pass a cleared scratch).
  void held_nodes(AppId app, std::vector<NodeId>& out) const;
  /// Executor ids `app` currently holds, ascending (== an id-order ledger
  /// scan filtered on owner).  Appends to `out`.
  void held_executors(AppId app, std::vector<ExecutorId>& out) const;
  /// True when `app` holds at least one executor on `node`.
  [[nodiscard]] bool holds_on(AppId app, NodeId node) const;
  /// Dense per-node counts of executors `app` holds (index = node id), for
  /// O(1) coverage membership in hot per-task checks; nullptr when the app
  /// has never held an executor (an all-zero vector is a valid return for
  /// an app that held and released everything).
  [[nodiscard]] const std::vector<int>* held_counts(AppId app) const;

  /// Flip an executor's busy flag, keeping the owner's free-held set in
  /// sync.  No-op when the flag already has that value.
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
  /// The free executors `app` holds on `node`, ascending, appended to
  /// `out`: the free-held set's members there.  Executor ids are
  /// contiguous per node, so this costs O(executors_per_node).
  void free_held_on(AppId app, NodeId node, std::vector<ExecutorId>& out) const;

  /// Serialize the ownership ledger: node liveness/speeds plus each
  /// executor's {owner, busy}.  Everything else (idle index, held sets,
  /// free sets, per-node counts) is derived, so RestoreFrom rebuilds it by
  /// replaying fail_node/assign/set_busy against a reset ledger and then
  /// cross-checks the rebuilt idle count against the saved one.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  /// Remove `exec` from its owner's held counters (owner must be valid).
  void drop_ownership(const Executor& exec);

  std::size_t num_nodes_;
  WorkerConfig config_;
  std::vector<Executor> executors_;
  std::vector<bool> node_alive_;
  std::vector<double> node_speed_;
  core::IdleExecutorIndex idle_index_;
  /// app -> executor ids held, ascending; entries erased when emptied.
  std::unordered_map<AppId::value_type, std::vector<ExecutorId::value_type>>
      owned_ids_;
  /// app -> (node -> executors held there), node-ordered so held_nodes is
  /// an in-order walk; inner entries erased when the count hits zero.
  std::unordered_map<AppId::value_type, std::map<NodeId::value_type, int>>
      owned_on_node_;
  /// app -> dense per-node held counts, sized num_nodes_ on first grant and
  /// never erased (an app that drops to zero keeps its zeroed vector).
  std::unordered_map<AppId::value_type, std::vector<int>> held_counts_;
  /// app -> held-and-not-busy executor ids, ascending; entries erased when
  /// emptied.
  std::unordered_map<AppId::value_type, std::vector<ExecutorId::value_type>>
      free_held_;
};

}  // namespace custody::cluster
