// Incrementally maintained dispatch index over one application's ready
// tasks — the structure behind the O(1)-ish per-offer scheduler path.
//
// Instead of rescanning every task of every active job per offer
// (O(jobs × tasks)), this index keeps, per job, the sorted ids of its
// *ready* input (stage-0) and downstream tasks, and per node the sorted
// (job, task) pairs of ready input tasks whose block is local there (disk
// replica or cached copy — the paper's E_u model).  Within an application
// TaskId order equals (job submission, stage, task index) order — ids are
// assigned sequentially at submit time — so list minima are the first
// matches of a scan in stage order.
//
// Layout: the per-node and per-block lists live in SlotLists, a key ->
// slot map over a pool of sorted vectors whose emptied slots are recycled,
// so steady churn allocates no lists and a 10k-node application holds one
// small node array instead of 10k lists.  A node's pairs sort by
// (job, task), so first_local_input is one binary search whatever order a
// restored snapshot gave the ids.
//
// Update triggers:
//   - task state transitions: task_ready (stage unblocked, task reset
//     after failure), task_unready (launch), job_removed (job finished);
//   - disk replica churn: Dfs replica listeners (placement only happens
//     before jobs run, so in practice fail_node re-replication and
//     boost_replication);
//   - cached-copy churn: BlockCache change listeners (insert / evict /
//     cache loss on node failure).
// A (task, node) pair is in the node's list exactly while the task is
// ready and the node is a merged (disk ∪ cache) location of its block.  A
// node joins the local-ready set when its list becomes non-empty and
// leaves it when the list empties; the node listener hears both.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/job.h"
#include "common/types.h"
#include "dfs/cache.h"
#include "dfs/dfs.h"

namespace custody::app {

class ReadyTaskIndex {
 public:
  /// Hears (node, true) when a node joins the local-ready set and
  /// (node, false) when it leaves.
  using NodeListener = std::function<void(NodeId, bool)>;

  explicit ReadyTaskIndex(const dfs::Dfs& dfs) : dfs_(&dfs) {}

  /// Cached copies then count as local, per the paper's
  /// E_u = {D_x : stores or caches D_x} executor model.
  void set_cache(const dfs::BlockCache* cache) { cache_ = cache; }
  /// Install the local-ready node listener.  Nodes already in the set are
  /// not replayed, so install it before the first task_ready.
  void set_listener(NodeListener listener) { listener_ = std::move(listener); }

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
  /// node's entries when the other kind of copy remains there.
  void replica_removed(BlockId block, NodeId node);

  // --- queries (all O(log) or O(1)) ---------------------------------------
  /// First (lowest-id) ready input task of `job`; invalid when none.
  [[nodiscard]] TaskId first_ready_input(JobId job) const;
  /// First ready downstream task of `job`; invalid when none.
  [[nodiscard]] TaskId first_ready_other(JobId job) const;
  /// First ready input task of `job` local to `node`; invalid when none.
  [[nodiscard]] TaskId first_local_input(JobId job, NodeId node) const;
  [[nodiscard]] bool has_local_ready_input(JobId job, NodeId node) const {
    return first_local_input(job, node).valid();
  }
  [[nodiscard]] bool has_ready_input(JobId job) const {
    return first_ready_input(job).valid();
  }
  [[nodiscard]] bool has_ready_other(JobId job) const {
    return first_ready_other(job).valid();
  }
  /// True when any job has a ready input task local to `node`: `node` is
  /// in the local-ready set.  An array read.
  [[nodiscard]] bool any_local_ready_input(NodeId node) const {
    return nodes_.has(node.value());
  }
  /// The ready (job, task) pairs local to `node`, across jobs.
  [[nodiscard]] std::size_t local_ready_count(NodeId node) const {
    return nodes_.get(node.value()).size();
  }
  /// Ready tasks across all jobs (inputs + downstream).
  [[nodiscard]] int ready_count() const { return ready_count_; }
  /// Ready input tasks of `job` in id (= stage scan) order.
  [[nodiscard]] const std::vector<TaskId>& ready_inputs(JobId job) const;
  /// Calls `fn(block)` for each block some ready input task reads, in
  /// ascending id order, until `fn` returns true; returns whether it did.
  /// Tasks sharing a block share locality, so existence checks can walk
  /// distinct blocks instead of every ready task.
  template <typename Fn>
  bool any_ready_block(Fn&& fn) const {
    return blocks_.any_key(
        [&fn](std::uint32_t block) { return fn(BlockId(block)); });
  }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Key -> slot maps for SlotLists.  Node ids index a dense array, so
  /// any_local_ready_input is an array read.  A catalog holds far more
  /// blocks than are ever ready at once, so block ids go through a sorted
  /// (key, slot) vector sized by the ready ones; it also walks them in
  /// ascending id order, which a restore reproduces whatever history built
  /// the index.
  struct DenseSlots {
    std::vector<std::uint32_t> slots;
    [[nodiscard]] std::uint32_t find(std::uint32_t key) const {
      return key < slots.size() ? slots[key] : kNoSlot;
    }
    void set(std::uint32_t key, std::uint32_t slot) {
      if (key >= slots.size()) slots.resize(key + 1, kNoSlot);
      slots[key] = slot;
    }
  };
  struct SortedSlots {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> slots;
    [[nodiscard]] std::uint32_t find(std::uint32_t key) const;
    /// kNoSlot removes `key`.
    void set(std::uint32_t key, std::uint32_t slot);
    template <typename Fn>
    bool any_key(Fn&& fn) const {
      for (const auto& [key, slot] : slots) {
        if (fn(key)) return true;
      }
      return false;
    }
  };

  /// Sorted lists of packed 64-bit entries keyed by a 32-bit id: a
  /// key -> slot map over a pool of lists whose emptied slots are reused.
  template <typename Slots>
  class SlotLists {
   public:
    [[nodiscard]] bool has(std::uint32_t key) const {
      return slot_of_.find(key) != kNoSlot;
    }
    /// `key`'s list, ascending; empty when it has none.
    [[nodiscard]] std::span<const std::uint64_t> get(std::uint32_t key) const {
      const std::uint32_t slot = slot_of_.find(key);
      if (slot == kNoSlot) return {};
      return lists_[slot];
    }
    /// Inserts `entry` unless present; true when `key`'s list was empty.
    bool insert(std::uint32_t key, std::uint64_t entry);
    /// Erases `entry` if present; true when `key`'s list became empty.
    bool erase(std::uint32_t key, std::uint64_t entry);
    /// `fn(key)` for each key with a non-empty list, in the key map's
    /// order, until it returns true.
    template <typename Fn>
    bool any_key(Fn&& fn) const {
      return slot_of_.any_key(fn);
    }

   private:
    Slots slot_of_;                                  ///< key -> slot
    std::vector<std::vector<std::uint64_t>> lists_;  ///< slot -> list
    std::vector<std::uint32_t> free_slots_;          ///< emptied, reusable
  };

  struct JobEntry {
    std::vector<TaskId> ready_inputs;  ///< ascending
    std::vector<TaskId> ready_others;  ///< ascending
  };

  /// Visits the block's live locations: disk replicas, then cached holders
  /// (a node holding both is visited twice).
  template <typename Fn>
  void for_each_location(BlockId block, Fn&& fn) const;
  void add_local(NodeId node, JobId job, TaskId task);
  void remove_local(NodeId node, JobId job, TaskId task);

  const dfs::Dfs* dfs_;
  const dfs::BlockCache* cache_ = nullptr;
  NodeListener listener_;
  std::unordered_map<JobId, JobEntry> jobs_;
  /// node -> ready input tasks local there, as (job << 32 | task).
  SlotLists<DenseSlots> nodes_;
  /// block -> ready input tasks reading it, as (task << 32 | job): the
  /// fan-out set for replica change notifications.
  SlotLists<SortedSlots> blocks_;
  int ready_count_ = 0;
};

}  // namespace custody::app
