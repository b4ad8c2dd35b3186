#include "app/ready_index.h"

#include <cassert>

namespace custody::app {

bool ReadyTaskIndex::is_local(BlockId block, NodeId node) const {
  if (dfs_->is_local(block, node)) return true;
  return cache_ != nullptr && cache_->peek_cached(node, block);
}

void ReadyTaskIndex::for_each_location(
    BlockId block, const std::function<void(NodeId)>& fn) const {
  // Live disk replicas plus live cached holders, read from their sources
  // rather than the cache's merged map: this runs inside replica-change
  // listeners, in whatever order they were registered.  A node holding
  // both kinds is visited twice; add/remove are idempotent.
  for (NodeId node : dfs_->locations(block)) fn(node);
  if (cache_ != nullptr) {
    for (NodeId node : cache_->cached_holders(block)) fn(node);
  }
}

void ReadyTaskIndex::add_local(JobEntry& entry, NodeId node, TaskId task) {
  if (entry.local_ready[node].insert(task).second &&
      ++local_ready_nodes_[node] == 1) {
    ++local_ready_node_joins_;
  }
}

void ReadyTaskIndex::remove_local(JobEntry& entry, NodeId node, TaskId task) {
  auto it = entry.local_ready.find(node);
  if (it == entry.local_ready.end()) return;
  if (it->second.erase(task) == 0) return;
  if (it->second.empty()) entry.local_ready.erase(it);
  auto nit = local_ready_nodes_.find(node);
  assert(nit != local_ready_nodes_.end());
  if (--nit->second == 0) local_ready_nodes_.erase(nit);
}

void ReadyTaskIndex::task_ready(const Task& t) {
  JobEntry& entry = jobs_[t.job];
  ++ready_count_;
  if (!t.is_input()) {
    entry.ready_others.insert(t.id);
    return;
  }
  entry.ready_inputs.insert(t.id);
  ready_by_block_[t.block].emplace(t.id, t.job);
  for_each_location(t.block,
                    [&](NodeId node) { add_local(entry, node, t.id); });
}

void ReadyTaskIndex::task_unready(const Task& t) {
  auto jit = jobs_.find(t.job);
  assert(jit != jobs_.end());
  JobEntry& entry = jit->second;
  --ready_count_;
  if (!t.is_input()) {
    entry.ready_others.erase(t.id);
    return;
  }
  entry.ready_inputs.erase(t.id);
  auto bit = ready_by_block_.find(t.block);
  if (bit != ready_by_block_.end()) {
    bit->second.erase(t.id);
    if (bit->second.empty()) ready_by_block_.erase(bit);
  }
  // The task's node memberships track the block's live locations at all
  // times (replica churn is applied incrementally), so removing it from
  // the current locations removes it everywhere.
  for_each_location(t.block,
                    [&](NodeId node) { remove_local(entry, node, t.id); });
}

void ReadyTaskIndex::job_removed(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  // Jobs finish only when every task finished, so the sets must be empty.
  assert(it->second.ready_inputs.empty());
  assert(it->second.ready_others.empty());
  assert(it->second.local_ready.empty());
  jobs_.erase(it);
}

void ReadyTaskIndex::replica_added(BlockId block, NodeId node) {
  auto bit = ready_by_block_.find(block);
  if (bit == ready_by_block_.end()) return;
  for (const auto& [task, job] : bit->second) {
    add_local(jobs_.at(job), node, task);
  }
}

void ReadyTaskIndex::replica_removed(BlockId block, NodeId node) {
  // A node can hold both a disk replica and a cached copy (a replica can be
  // re-replicated onto a node that already cached the block); dropping one
  // keeps the block local while the other remains.
  if (is_local(block, node)) return;
  auto bit = ready_by_block_.find(block);
  if (bit == ready_by_block_.end()) return;
  for (const auto& [task, job] : bit->second) {
    remove_local(jobs_.at(job), node, task);
  }
}

TaskId ReadyTaskIndex::first_ready_input(JobId job) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end() || it->second.ready_inputs.empty()) {
    return TaskId::invalid();
  }
  return *it->second.ready_inputs.begin();
}

TaskId ReadyTaskIndex::first_ready_other(JobId job) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end() || it->second.ready_others.empty()) {
    return TaskId::invalid();
  }
  return *it->second.ready_others.begin();
}

TaskId ReadyTaskIndex::first_local_input(JobId job, NodeId node) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return TaskId::invalid();
  auto nit = it->second.local_ready.find(node);
  if (nit == it->second.local_ready.end() || nit->second.empty()) {
    return TaskId::invalid();
  }
  return *nit->second.begin();
}

bool ReadyTaskIndex::has_local_ready_input(JobId job, NodeId node) const {
  return first_local_input(job, node).valid();
}

bool ReadyTaskIndex::has_ready_input(JobId job) const {
  auto it = jobs_.find(job);
  return it != jobs_.end() && !it->second.ready_inputs.empty();
}

bool ReadyTaskIndex::has_ready_other(JobId job) const {
  auto it = jobs_.find(job);
  return it != jobs_.end() && !it->second.ready_others.empty();
}

bool ReadyTaskIndex::any_local_ready_input(NodeId node) const {
  return local_ready_nodes_.count(node) > 0;
}

const std::set<TaskId>& ReadyTaskIndex::ready_inputs(JobId job) const {
  static const std::set<TaskId> kEmpty;
  auto it = jobs_.find(job);
  return it == jobs_.end() ? kEmpty : it->second.ready_inputs;
}

}  // namespace custody::app
