#include "app/ready_index.h"

#include <algorithm>
#include <cassert>

namespace custody::app {

namespace {

std::uint64_t Pack(std::uint32_t high, std::uint32_t low) {
  return static_cast<std::uint64_t>(high) << 32 | low;
}
std::uint32_t High(std::uint64_t entry) {
  return static_cast<std::uint32_t>(entry >> 32);
}
std::uint32_t Low(std::uint64_t entry) {
  return static_cast<std::uint32_t>(entry);
}

/// Sorted-vector set operations; both report whether `ids` changed.
template <typename T>
bool InsertSorted(std::vector<T>& ids, T id) {
  const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  if (pos != ids.end() && *pos == id) return false;
  ids.insert(pos, id);
  return true;
}

template <typename T>
bool EraseSorted(std::vector<T>& ids, T id) {
  const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  if (pos == ids.end() || *pos != id) return false;
  ids.erase(pos);
  return true;
}

}  // namespace

std::uint32_t ReadyTaskIndex::SortedSlots::find(std::uint32_t key) const {
  const auto it = std::lower_bound(
      slots.begin(), slots.end(), key,
      [](const auto& entry, std::uint32_t k) { return entry.first < k; });
  return it != slots.end() && it->first == key ? it->second : kNoSlot;
}

void ReadyTaskIndex::SortedSlots::set(std::uint32_t key, std::uint32_t slot) {
  const auto it = std::lower_bound(
      slots.begin(), slots.end(), key,
      [](const auto& entry, std::uint32_t k) { return entry.first < k; });
  const bool present = it != slots.end() && it->first == key;
  if (slot == kNoSlot) {
    if (present) slots.erase(it);
  } else if (present) {
    it->second = slot;
  } else {
    slots.insert(it, {key, slot});
  }
}

template <typename Slots>
bool ReadyTaskIndex::SlotLists<Slots>::insert(std::uint32_t key,
                                              std::uint64_t entry) {
  const std::uint32_t found = slot_of_.find(key);
  if (found != kNoSlot) {
    InsertSorted(lists_[found], entry);
    return false;
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(lists_.size());
    lists_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slot_of_.set(key, slot);
  lists_[slot].push_back(entry);
  return true;
}

template <typename Slots>
bool ReadyTaskIndex::SlotLists<Slots>::erase(std::uint32_t key,
                                             std::uint64_t entry) {
  const std::uint32_t slot = slot_of_.find(key);
  if (slot == kNoSlot || !EraseSorted(lists_[slot], entry) ||
      !lists_[slot].empty()) {
    return false;
  }
  // The emptied list keeps its capacity for the next key that takes the
  // slot.
  slot_of_.set(key, kNoSlot);
  free_slots_.push_back(slot);
  return true;
}

template class ReadyTaskIndex::SlotLists<ReadyTaskIndex::DenseSlots>;
template class ReadyTaskIndex::SlotLists<ReadyTaskIndex::SortedSlots>;

bool ReadyTaskIndex::is_local(BlockId block, NodeId node) const {
  if (dfs_->is_local(block, node)) return true;
  return cache_ != nullptr && cache_->peek_cached(node, block);
}

template <typename Fn>
void ReadyTaskIndex::for_each_location(BlockId block, Fn&& fn) const {
  // Live disk replicas plus live cached holders, read from their sources
  // rather than the cache's merged map: this runs inside replica-change
  // listeners, in whatever order they were registered.  A node holding
  // both kinds is visited twice; add/remove are idempotent.
  for (NodeId node : dfs_->locations(block)) fn(node);
  if (cache_ != nullptr) {
    for (NodeId node : cache_->cached_holders(block)) fn(node);
  }
}

void ReadyTaskIndex::add_local(NodeId node, JobId job, TaskId task) {
  if (nodes_.insert(node.value(), Pack(job.value(), task.value())) &&
      listener_) {
    listener_(node, true);
  }
}

void ReadyTaskIndex::remove_local(NodeId node, JobId job, TaskId task) {
  if (nodes_.erase(node.value(), Pack(job.value(), task.value())) &&
      listener_) {
    listener_(node, false);
  }
}

void ReadyTaskIndex::task_ready(const Task& t) {
  JobEntry& entry = jobs_[t.job];
  ++ready_count_;
  if (!t.is_input()) {
    InsertSorted(entry.ready_others, t.id);
    return;
  }
  InsertSorted(entry.ready_inputs, t.id);
  blocks_.insert(t.block.value(), Pack(t.id.value(), t.job.value()));
  for_each_location(t.block,
                    [&](NodeId node) { add_local(node, t.job, t.id); });
}

void ReadyTaskIndex::task_unready(const Task& t) {
  auto jit = jobs_.find(t.job);
  assert(jit != jobs_.end());
  JobEntry& entry = jit->second;
  --ready_count_;
  if (!t.is_input()) {
    EraseSorted(entry.ready_others, t.id);
    return;
  }
  EraseSorted(entry.ready_inputs, t.id);
  blocks_.erase(t.block.value(), Pack(t.id.value(), t.job.value()));
  // The task's node memberships track the block's live locations at all
  // times (replica churn is applied incrementally), so removing it from
  // the current locations removes it everywhere.
  for_each_location(t.block,
                    [&](NodeId node) { remove_local(node, t.job, t.id); });
}

void ReadyTaskIndex::job_removed(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  // Jobs finish only when every task finished, so the lists must be empty.
  assert(it->second.ready_inputs.empty());
  assert(it->second.ready_others.empty());
  jobs_.erase(it);
}

void ReadyTaskIndex::replica_added(BlockId block, NodeId node) {
  for (const std::uint64_t entry : blocks_.get(block.value())) {
    add_local(node, JobId(Low(entry)), TaskId(High(entry)));
  }
}

void ReadyTaskIndex::replica_removed(BlockId block, NodeId node) {
  // A node can hold both a disk replica and a cached copy (a replica can be
  // re-replicated onto a node that already cached the block); dropping one
  // keeps the block local while the other remains.
  if (is_local(block, node)) return;
  for (const std::uint64_t entry : blocks_.get(block.value())) {
    remove_local(node, JobId(Low(entry)), TaskId(High(entry)));
  }
}

TaskId ReadyTaskIndex::first_ready_input(JobId job) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end() || it->second.ready_inputs.empty()) {
    return TaskId::invalid();
  }
  return it->second.ready_inputs.front();
}

TaskId ReadyTaskIndex::first_ready_other(JobId job) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end() || it->second.ready_others.empty()) {
    return TaskId::invalid();
  }
  return it->second.ready_others.front();
}

TaskId ReadyTaskIndex::first_local_input(JobId job, NodeId node) const {
  const auto pairs = nodes_.get(node.value());
  const auto it =
      std::lower_bound(pairs.begin(), pairs.end(), Pack(job.value(), 0));
  if (it == pairs.end() || High(*it) != job.value()) return TaskId::invalid();
  return TaskId(Low(*it));
}

const std::vector<TaskId>& ReadyTaskIndex::ready_inputs(JobId job) const {
  static const std::vector<TaskId> kEmpty;
  auto it = jobs_.find(job);
  return it == jobs_.end() ? kEmpty : it->second.ready_inputs;
}

}  // namespace custody::app
