#include "core/idle_index.h"

#include <algorithm>
#include <cassert>

namespace custody::core {

IdleExecutorIndex::IdleExecutorIndex(std::size_t num_executors,
                                     std::size_t num_nodes)
    : num_execs_(num_executors), num_nodes_(num_nodes) {
  fen_mask_ = 0;
  if (num_execs_ > 0) {
    fen_mask_ = 1;
    while (fen_mask_ * 2 <= num_execs_) fen_mask_ *= 2;
  }
  idle_.assign(num_execs_, false);
  node_of_.assign(num_execs_, 0);
  fenwick_.assign(num_execs_ + 1, 0);
  by_node_.resize(num_nodes_);
  // Empty circular list: the sentinel (index num_execs_) points at itself.
  next_.assign(num_execs_ + 1, static_cast<std::uint32_t>(num_execs_));
  prev_.assign(num_execs_ + 1, static_cast<std::uint32_t>(num_execs_));
  taken_epoch_.assign(num_execs_, 0);
  cursor_epoch_.assign(num_nodes_, 0);
  cursor_pos_.assign(num_nodes_, 0);
  uf_epoch_.assign(num_execs_ + 1, 0);
  uf_parent_.assign(num_execs_ + 1, 0);
}

void IdleExecutorIndex::fen_add(std::size_t id, int delta) {
  for (std::size_t i = id + 1; i <= num_execs_; i += i & (~i + 1)) {
    fenwick_[i] += delta;
  }
}

std::size_t IdleExecutorIndex::fen_rank(std::size_t id) const {
  std::int64_t sum = 0;
  for (std::size_t i = id; i > 0; i -= i & (~i + 1)) sum += fenwick_[i];
  return static_cast<std::size_t>(sum);
}

std::size_t IdleExecutorIndex::fen_select(std::size_t k) const {
  assert(k < count_);
  std::size_t pos = 0;  // 1-indexed prefix position
  auto rem = static_cast<std::int64_t>(k + 1);
  for (std::size_t step = fen_mask_; step > 0; step /= 2) {
    const std::size_t next = pos + step;
    if (next <= num_execs_ && fenwick_[next] < rem) {
      pos = next;
      rem -= fenwick_[next];
    }
  }
  return pos;  // == 0-based executor id of the (k+1)-th idle
}

void IdleExecutorIndex::add(ExecutorId id, NodeId node) {
  assert(!round_active_);
  const std::size_t e = id.value();
  assert(e < num_execs_ && node.value() < num_nodes_);
  assert(!idle_[e]);
  // Splice into the sorted intrusive list before the successor (the idle
  // executor with the smallest id above e, found by rank/select).
  const std::size_t rank = fen_rank(e);
  const std::size_t succ = rank < count_ ? fen_select(rank) : num_execs_;
  const std::uint32_t s32 = static_cast<std::uint32_t>(succ);
  const std::uint32_t e32 = static_cast<std::uint32_t>(e);
  next_[e] = s32;
  prev_[e] = prev_[succ];
  next_[prev_[succ]] = e32;
  prev_[succ] = e32;

  auto& list = by_node_[node.value()];
  list.insert(std::lower_bound(list.begin(), list.end(), e32), e32);
  node_of_[e] = node.value();
  idle_[e] = true;
  fen_add(e, +1);
  ++count_;
}

void IdleExecutorIndex::add_all(std::span<const NodeId> home) {
  assert(!round_active_ && count_ == 0 && home.size() == num_execs_);
  const auto n = static_cast<std::uint32_t>(num_execs_);
  // The list runs 0, 1, ..., n-1 from the sentinel n and back to it.
  next_[n] = 0;
  prev_[n] = n == 0 ? n : n - 1;
  std::vector<std::uint32_t> per_node(num_nodes_, 0);
  for (const NodeId node : home) {
    assert(node.value() < num_nodes_);
    ++per_node[node.value()];
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) by_node_[v].reserve(per_node[v]);
  for (std::uint32_t e = 0; e < n; ++e) {
    next_[e] = e + 1;
    prev_[e] = e == 0 ? n : e - 1;
    by_node_[home[e].value()].push_back(e);
    node_of_[e] = home[e].value();
    // All ones: node i of the 1-indexed tree sums (i - lowbit(i), i].
    const std::size_t i = e + 1;
    fenwick_[i] = static_cast<std::int64_t>(i & (~i + 1));
  }
  idle_.assign(num_execs_, true);
  count_ = num_execs_;
}

void IdleExecutorIndex::remove(ExecutorId id, NodeId node) {
  assert(!round_active_);
  const std::size_t e = id.value();
  assert(e < num_execs_ && node.value() < num_nodes_);
  assert(idle_[e]);
  next_[prev_[e]] = next_[e];
  prev_[next_[e]] = prev_[e];

  auto& list = by_node_[node.value()];
  const auto it = std::lower_bound(list.begin(), list.end(),
                                   static_cast<std::uint32_t>(e));
  assert(it != list.end() && *it == e);
  list.erase(it);
  idle_[e] = false;
  fen_add(e, -1);
  --count_;
}

ExecutorId IdleExecutorIndex::first_on(NodeId node, std::size_t skip) const {
  if (node.value() >= num_nodes_) return ExecutorId::invalid();
  const auto& list = by_node_[node.value()];
  return skip < list.size() ? ExecutorId(list[skip]) : ExecutorId::invalid();
}

void IdleExecutorIndex::append_ids(std::vector<ExecutorId>& out) const {
  for (std::size_t e = next_[num_execs_]; e != num_execs_; e = next_[e]) {
    out.push_back(ExecutorId(static_cast<ExecutorId::value_type>(e)));
  }
}

void IdleExecutorIndex::append_infos(std::vector<ExecutorInfo>& out) const {
  for (std::size_t e = next_[num_execs_]; e != num_execs_; e = next_[e]) {
    out.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                   NodeId(node_of_[e])});
  }
}

void IdleExecutorIndex::begin_round() {
  assert(!round_active_);
  ++epoch_;  // epoch 0 is "never" — stale scratch can't collide
  round_active_ = true;
  round_n_ = count_;
  round_taken_ = 0;
  scan_start_ = 0;
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

std::size_t IdleExecutorIndex::uf_find(std::size_t r) {
  std::size_t root = r;
  while (true) {
    if (uf_epoch_[root] != epoch_) {
      uf_epoch_[root] = epoch_;
      uf_parent_[root] = static_cast<std::uint32_t>(root);
    }
    if (uf_parent_[root] == root) break;
    root = uf_parent_[root];
  }
  while (r != root) {  // path compression
    const std::size_t next = uf_parent_[r];
    uf_parent_[r] = static_cast<std::uint32_t>(root);
    r = next;
  }
  return root;
}

std::size_t IdleExecutorIndex::find_free(std::size_t r) {
  // One enumeration per lookup — the relink loop below is bookkeeping for
  // claim_on thefts, not candidate scanning.
  ++enumerated_;
  while (true) {
    const std::size_t root = uf_find(r);
    if (root >= round_n_) return round_n_;
    const std::size_t exec = fen_select(root);
    if (taken_epoch_[exec] != epoch_) return root;
    // Claimed via claim_on since the last lookup: link past it lazily.
    uf_parent_[root] = static_cast<std::uint32_t>(root + 1);
    r = root + 1;
  }
}

ExecutorId IdleExecutorIndex::view_claim_any() {
  // The rotation runs over ranks within the round-start idle set, i.e.
  // positions in the ascending idle-id order (the Fenwick tree is frozen
  // while the round is live, so ranks are stable).
  if (round_n_ == 0 || round_taken_ == round_n_) return ExecutorId::invalid();
  std::size_t r = find_free(scan_start_);
  if (r == round_n_) r = find_free(0);  // wrap: first idle below the start
  assert(r < round_n_);
  const std::size_t exec = fen_select(r);
  take(exec);
  uf_epoch_[r] = epoch_;
  uf_parent_[r] = static_cast<std::uint32_t>(r + 1);
  scan_start_ = (r + 1) % round_n_;
  return ExecutorId(static_cast<ExecutorId::value_type>(exec));
}

bool IdleExecutorIndex::view_has_on(const std::vector<NodeId>& nodes) const {
  for (NodeId node : nodes) {
    if (head_on(node) != kNone) return true;
  }
  return false;
}

}  // namespace custody::core
