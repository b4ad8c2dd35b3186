#include "core/idle_index.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace custody::core {

IdleExecutorIndex::IdleExecutorIndex(std::size_t num_executors,
                                     std::size_t num_nodes)
    : num_execs_(num_executors), num_nodes_(num_nodes) {
  idle_.assign((num_execs_ + 63) / 64, 0);
  node_of_.assign(num_execs_, 0);
  by_node_.resize(num_nodes_);
  taken_epoch_.assign(num_execs_, 0);
  cursor_epoch_.assign(num_nodes_, 0);
  cursor_pos_.assign(num_nodes_, 0);
}

void IdleExecutorIndex::add(ExecutorId id, NodeId node) {
  assert(!round_active_);
  const std::size_t e = id.value();
  assert(e < num_execs_ && node.value() < num_nodes_);
  assert(!is_idle(e));
  auto& list = by_node_[node.value()];
  const auto e32 = static_cast<std::uint32_t>(e);
  list.insert(std::lower_bound(list.begin(), list.end(), e32), e32);
  node_of_[e] = node.value();
  idle_[e / 64] |= std::uint64_t{1} << (e % 64);
  ++count_;
}

void IdleExecutorIndex::add_all(std::span<const NodeId> home) {
  assert(!round_active_ && count_ == 0 && home.size() == num_execs_);
  std::vector<std::uint32_t> per_node(num_nodes_, 0);
  for (const NodeId node : home) {
    assert(node.value() < num_nodes_);
    ++per_node[node.value()];
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) by_node_[v].reserve(per_node[v]);
  for (std::uint32_t e = 0; e < num_execs_; ++e) {
    by_node_[home[e].value()].push_back(e);
    node_of_[e] = home[e].value();
  }
  std::fill(idle_.begin(), idle_.end(), ~std::uint64_t{0});
  if (num_execs_ % 64 != 0) {
    idle_.back() = (std::uint64_t{1} << (num_execs_ % 64)) - 1;
  }
  count_ = num_execs_;
}

void IdleExecutorIndex::remove(ExecutorId id, NodeId node) {
  assert(!round_active_);
  const std::size_t e = id.value();
  assert(e < num_execs_ && node.value() < num_nodes_);
  assert(is_idle(e));
  auto& list = by_node_[node.value()];
  const auto it = std::lower_bound(list.begin(), list.end(),
                                   static_cast<std::uint32_t>(e));
  assert(it != list.end() && *it == e);
  list.erase(it);
  idle_[e / 64] &= ~(std::uint64_t{1} << (e % 64));
  --count_;
}

ExecutorId IdleExecutorIndex::first_on(NodeId node, std::size_t skip) const {
  if (node.value() >= num_nodes_) return ExecutorId::invalid();
  const auto& list = by_node_[node.value()];
  return skip < list.size() ? ExecutorId(list[skip]) : ExecutorId::invalid();
}

std::size_t IdleExecutorIndex::next_idle(std::size_t from) const {
  std::size_t w = from / 64;
  if (w >= idle_.size()) return num_execs_;
  std::uint64_t bits = idle_[w] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++w == idle_.size()) return num_execs_;
    bits = idle_[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

namespace {

/// Calls `f(e)` for each set bit e of `words`, ascending.
template <class F>
void ForEachSetBit(const std::vector<std::uint64_t>& words, F f) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

void IdleExecutorIndex::append_ids(std::vector<ExecutorId>& out) const {
  ForEachSetBit(idle_, [&out](std::size_t e) {
    out.push_back(ExecutorId(static_cast<ExecutorId::value_type>(e)));
  });
}

void IdleExecutorIndex::append_infos(std::vector<ExecutorInfo>& out) const {
  ForEachSetBit(idle_, [&](std::size_t e) {
    out.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                   NodeId(node_of_[e])});
  });
}

void IdleExecutorIndex::begin_round() {
  assert(!round_active_);
  ++epoch_;  // epoch 0 is "never" — stale scratch can't collide
  round_active_ = true;
  round_n_ = count_;
  round_taken_ = 0;
  any_cursor_ = 0;
  enumerated_ = 0;
}

void IdleExecutorIndex::end_round() { round_active_ = false; }

std::size_t IdleExecutorIndex::head_on(NodeId node) const {
  if (node.value() >= num_nodes_) return kNone;
  const auto& list = by_node_[node.value()];
  if (cursor_epoch_[node.value()] != epoch_) {
    cursor_epoch_[node.value()] = epoch_;
    cursor_pos_[node.value()] = 0;
  }
  std::uint32_t& cursor = cursor_pos_[node.value()];
  while (cursor < list.size() && taken_epoch_[list[cursor]] == epoch_) {
    ++cursor;  // lazily drop executors claimed earlier this round
    ++enumerated_;
  }
  if (cursor == list.size()) return kNone;
  ++enumerated_;
  return list[cursor];
}

void IdleExecutorIndex::take(std::size_t exec) {
  taken_epoch_[exec] = epoch_;
  ++round_taken_;
}

ExecutorId IdleExecutorIndex::view_claim_on(const std::vector<NodeId>& nodes) {
  // Lowest-id idle executor over the replica nodes == minimum over each
  // node's head, because per-node lists are ascending in executor id.
  std::size_t best = kNone;
  for (NodeId node : nodes) {
    const std::size_t head = head_on(node);
    if (head < best) best = head;
  }
  if (best == kNone) return ExecutorId::invalid();
  take(best);
  return ExecutorId(static_cast<ExecutorId::value_type>(best));
}

ExecutorId IdleExecutorIndex::view_claim_any() {
  if (round_taken_ == round_n_) return ExecutorId::invalid();
  // One enumeration per lookup; stepping over executors claim_on took
  // since the last lookup is bookkeeping, not candidate scanning.  An
  // unclaimed idle executor exists, and none lies below the cursor, so the
  // walk ends on one.
  ++enumerated_;
  std::size_t e = next_idle(any_cursor_);
  while (taken_epoch_[e] == epoch_) e = next_idle(e + 1);
  take(e);
  any_cursor_ = e + 1;
  return ExecutorId(static_cast<ExecutorId::value_type>(e));
}

bool IdleExecutorIndex::view_has_on(const std::vector<NodeId>& nodes) const {
  for (NodeId node : nodes) {
    if (head_on(node) != kNone) return true;
  }
  return false;
}

}  // namespace custody::core
