// Incrementally maintained dispatch index over one application's ready
// tasks — the structure behind the O(1)-ish per-offer scheduler path.
//
// Instead of rescanning every task of every active job per offer
// (O(jobs × tasks)), this index buckets *ready* tasks per job, split into
// input (stage-0) and downstream sets, and maintains per node the set of
// ready input tasks whose block is local there (disk replica or cached
// copy — the paper's E_u model).  All sets are ordered std::set<TaskId>,
// and within an application TaskId order equals (job submission, stage,
// task index) order — ids are assigned sequentially at submit time — so
// set minima are the first matches of a scan in stage order.
//
// Update triggers:
//   - task state transitions: task_ready (stage unblocked, task reset
//     after failure), task_unready (launch), job_removed (job finished);
//   - disk replica churn: Dfs replica listeners (placement only happens
//     before jobs run, so in practice fail_node re-replication and
//     boost_replication);
//   - cached-copy churn: BlockCache change listeners (insert / evict /
//     cache loss on node failure).
// A (task, node) pair is a member of local_ready exactly while the task is
// ready and the node is a merged (disk ∪ cache) location of its block.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "app/job.h"
#include "common/types.h"
#include "dfs/cache.h"
#include "dfs/dfs.h"

namespace custody::app {

class ReadyTaskIndex {
 public:
  explicit ReadyTaskIndex(const dfs::Dfs& dfs) : dfs_(&dfs) {}

  /// Cached copies then count as local, per the paper's
  /// E_u = {D_x : stores or caches D_x} executor model.
  void set_cache(const dfs::BlockCache* cache) { cache_ = cache; }

  /// `node` holds a disk replica or (with a cache attached) a cached copy
  /// of `block`.  A pure inquiry: cache recency and hit counters are not
  /// touched, so asking cannot perturb LRU state.
  [[nodiscard]] bool is_local(BlockId block, NodeId node) const;

  // --- update triggers ----------------------------------------------------
  /// `t` entered kReady (stage became runnable, or a failed task was reset).
  void task_ready(const Task& t);
  /// `t` left kReady (it was launched).
  void task_unready(const Task& t);
  /// The job finished; all its tasks are already out of the index.
  void job_removed(JobId job);
  /// `node` gained a local copy of `block` (disk replica or cached).
  void replica_added(BlockId block, NodeId node);
  /// `node` lost a disk replica or cached copy of `block`.  Keeps the
  /// local_ready entries when the other kind of copy remains there.
  void replica_removed(BlockId block, NodeId node);

  // --- queries (all O(log) or O(1)) ---------------------------------------
  /// First (lowest-id) ready input task of `job`; invalid when none.
  [[nodiscard]] TaskId first_ready_input(JobId job) const;
  /// First ready downstream task of `job`; invalid when none.
  [[nodiscard]] TaskId first_ready_other(JobId job) const;
  /// First ready input task of `job` local to `node`; invalid when none.
  [[nodiscard]] TaskId first_local_input(JobId job, NodeId node) const;
  [[nodiscard]] bool has_local_ready_input(JobId job, NodeId node) const;
  [[nodiscard]] bool has_ready_input(JobId job) const;
  [[nodiscard]] bool has_ready_other(JobId job) const;
  /// True when any job has a ready input task local to `node`.
  [[nodiscard]] bool any_local_ready_input(NodeId node) const;
  /// The nodes where any_local_ready_input holds, each mapped to its count
  /// of live (job, task) memberships — the locality side of the
  /// task-executor graph, which a kick enumerates instead of every free
  /// executor.
  [[nodiscard]] const std::unordered_map<NodeId, int>& local_ready_nodes()
      const {
    return local_ready_nodes_;
  }
  /// How many times a node has joined local_ready_nodes().  Launches only
  /// shrink the set, so a kick asserts this stays put while it walks.
  [[nodiscard]] std::uint64_t local_ready_node_joins() const {
    return local_ready_node_joins_;
  }
  /// Ready tasks across all jobs (inputs + downstream).
  [[nodiscard]] int ready_count() const { return ready_count_; }
  /// Ready input tasks of `job` in id (= stage scan) order.
  [[nodiscard]] const std::set<TaskId>& ready_inputs(JobId job) const;
  /// Blocks with at least one ready input task (across all jobs) and those
  /// tasks — the replica-notification fan-out map.  Tasks sharing a block
  /// share locality, so existence checks can walk distinct blocks instead
  /// of every ready task.
  [[nodiscard]] const std::unordered_map<BlockId, std::map<TaskId, JobId>>&
  ready_blocks() const {
    return ready_by_block_;
  }

 private:
  struct JobEntry {
    std::set<TaskId> ready_inputs;
    std::set<TaskId> ready_others;
    /// node -> ready input tasks whose block is local there
    std::unordered_map<NodeId, std::set<TaskId>> local_ready;
  };

  /// Visits the block's live locations: disk replicas, then cached holders
  /// (a node holding both is visited twice).
  void for_each_location(BlockId block,
                         const std::function<void(NodeId)>& fn) const;
  void add_local(JobEntry& entry, NodeId node, TaskId task);
  void remove_local(JobEntry& entry, NodeId node, TaskId task);

  const dfs::Dfs* dfs_;
  const dfs::BlockCache* cache_ = nullptr;
  std::unordered_map<JobId, JobEntry> jobs_;
  /// block -> (ready input task -> its job): the fan-out set for replica
  /// change notifications.
  std::unordered_map<BlockId, std::map<TaskId, JobId>> ready_by_block_;
  /// node -> live (job, task) local_ready memberships; keys are erased at
  /// zero so any_local_ready_input is a single lookup.
  std::unordered_map<NodeId, int> local_ready_nodes_;
  std::uint64_t local_ready_node_joins_ = 0;
  int ready_count_ = 0;
};

}  // namespace custody::app
