#include "cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/snapshot.h"

namespace custody::cluster {

Cluster::Cluster(std::size_t num_nodes, WorkerConfig config)
    : num_nodes_(num_nodes),
      config_(config),
      idle_index_(config.executors_per_node > 0
                      ? num_nodes * config.executors_per_node
                      : 0,
                  num_nodes) {
  if (num_nodes == 0) {
    throw std::invalid_argument("Cluster: num_nodes must be positive");
  }
  if (config.executors_per_node <= 0) {
    throw std::invalid_argument("Cluster: executors_per_node must be > 0");
  }
  node_alive_.assign(num_nodes, true);
  node_speed_.assign(num_nodes, 1.0);
  executors_.reserve(num_nodes * config.executors_per_node);
  ExecutorId::value_type next = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    for (int e = 0; e < config.executors_per_node; ++e) {
      Executor exec;
      exec.id = ExecutorId(next++);
      exec.node = NodeId(static_cast<NodeId::value_type>(n));
      executors_.push_back(exec);
      idle_index_.add(exec.id, exec.node);
    }
  }
}

Executor& Cluster::executor(ExecutorId id) {
  if (id.value() >= executors_.size()) {
    throw std::out_of_range("Cluster: unknown executor");
  }
  return executors_[id.value()];
}

const Executor& Cluster::executor(ExecutorId id) const {
  if (id.value() >= executors_.size()) {
    throw std::out_of_range("Cluster: unknown executor");
  }
  return executors_[id.value()];
}

void Cluster::assign(ExecutorId id, AppId app) {
  Executor& exec = executor(id);
  if (!node_alive_[exec.node.value()]) {
    throw std::logic_error("Cluster: assigning executor on a failed node");
  }
  if (exec.allocated()) {
    throw std::logic_error("Cluster: executor already allocated");
  }
  assert(!exec.busy);
  exec.owner = app;
  idle_index_.remove(id, exec.node);
  auto& ids = owned_ids_[app.value()];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id.value()),
             id.value());
  ++owned_on_node_[app.value()][exec.node.value()];
  auto& counts = held_counts_[app.value()];
  if (counts.empty()) counts.assign(num_nodes_, 0);
  ++counts[exec.node.value()];
  auto& free = free_held_[app.value()];
  free.insert(std::lower_bound(free.begin(), free.end(), id.value()),
              id.value());
}

void Cluster::release(ExecutorId id) {
  Executor& exec = executor(id);
  if (!exec.allocated()) {
    throw std::logic_error("Cluster: releasing unallocated executor");
  }
  if (exec.busy) {
    throw std::logic_error("Cluster: releasing busy executor");
  }
  drop_ownership(exec);
  exec.owner = AppId::invalid();
  // A released executor on a live node rejoins the idle set (release on a
  // dead node cannot happen: fail_node already cleared ownership there).
  idle_index_.add(id, exec.node);
}

void Cluster::drop_ownership(const Executor& exec) {
  const auto ids = owned_ids_.find(exec.owner.value());
  assert(ids != owned_ids_.end());
  const auto pos = std::lower_bound(ids->second.begin(), ids->second.end(),
                                    exec.id.value());
  assert(pos != ids->second.end() && *pos == exec.id.value());
  ids->second.erase(pos);
  if (ids->second.empty()) owned_ids_.erase(ids);
  const auto by_node = owned_on_node_.find(exec.owner.value());
  assert(by_node != owned_on_node_.end());
  const auto on_node = by_node->second.find(exec.node.value());
  assert(on_node != by_node->second.end() && on_node->second > 0);
  if (--on_node->second == 0) by_node->second.erase(on_node);
  if (by_node->second.empty()) owned_on_node_.erase(by_node);
  --held_counts_[exec.owner.value()][exec.node.value()];
  if (!exec.busy) {
    // Busy executors are not in the free set (fail_node drops them busy).
    const auto entry = free_held_.find(exec.owner.value());
    assert(entry != free_held_.end());
    if (entry == free_held_.end()) return;
    auto& free = entry->second;
    const auto it = std::lower_bound(free.begin(), free.end(),
                                     exec.id.value());
    assert(it != free.end() && *it == exec.id.value());
    if (it != free.end() && *it == exec.id.value()) free.erase(it);
    if (free.empty()) free_held_.erase(entry);
  }
}

void Cluster::fail_node(NodeId node) {
  if (node.value() >= num_nodes_) {
    throw std::out_of_range("Cluster: unknown node");
  }
  if (!node_alive_[node.value()]) return;
  node_alive_[node.value()] = false;
  for (Executor& exec : executors_) {
    if (exec.node != node) continue;
    if (exec.allocated()) {
      drop_ownership(exec);
    } else {
      idle_index_.remove(exec.id, exec.node);  // dead executors never idle
    }
    exec.owner = AppId::invalid();
    exec.busy = false;
  }
}

double Cluster::node_speed(NodeId node) const {
  if (node.value() >= num_nodes_) {
    throw std::out_of_range("Cluster: unknown node");
  }
  return node_speed_[node.value()];
}

void Cluster::set_node_speed(NodeId node, double speed) {
  if (node.value() >= num_nodes_) {
    throw std::out_of_range("Cluster: unknown node");
  }
  if (speed <= 0.0) {
    throw std::invalid_argument("Cluster: node speed must be positive");
  }
  node_speed_[node.value()] = speed;
}

bool Cluster::node_alive(NodeId node) const {
  return node.value() < num_nodes_ && node_alive_[node.value()];
}

bool Cluster::executor_alive(ExecutorId id) const {
  return node_alive(executor(id).node);
}

std::size_t Cluster::alive_executor_count() const {
  std::size_t count = 0;
  for (const Executor& exec : executors_) {
    if (node_alive_[exec.node.value()]) ++count;
  }
  return count;
}

std::vector<NodeId> Cluster::alive_nodes() const {
  std::vector<NodeId> nodes;
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    if (node_alive_[n]) {
      nodes.push_back(NodeId(static_cast<NodeId::value_type>(n)));
    }
  }
  return nodes;
}

std::vector<core::ExecutorInfo> Cluster::idle_executors() const {
  std::vector<core::ExecutorInfo> idle;
  for (const Executor& exec : executors_) {
    if (!exec.allocated() && node_alive_[exec.node.value()]) {
      idle.push_back({exec.id, exec.node});
    }
  }
  return idle;
}

int Cluster::owned_by(AppId app) const {
  const auto it = owned_ids_.find(app.value());
  return it == owned_ids_.end() ? 0 : static_cast<int>(it->second.size());
}

void Cluster::held_executors(AppId app, std::vector<ExecutorId>& out) const {
  const auto it = owned_ids_.find(app.value());
  if (it == owned_ids_.end()) return;
  for (const ExecutorId::value_type id : it->second) {
    out.push_back(ExecutorId(id));
  }
}

void Cluster::set_busy(ExecutorId id, bool busy) {
  Executor& exec = executor(id);
  if (exec.busy == busy) return;
  exec.busy = busy;
  if (!exec.allocated()) return;  // unowned executors live in the idle index
  if (busy) {
    const auto entry = free_held_.find(exec.owner.value());
    assert(entry != free_held_.end());
    auto& free = entry->second;
    const auto it = std::lower_bound(free.begin(), free.end(), id.value());
    assert(it != free.end() && *it == id.value());
    if (it != free.end() && *it == id.value()) free.erase(it);
    if (free.empty()) free_held_.erase(entry);
  } else {
    auto& free = free_held_[exec.owner.value()];
    free.insert(std::lower_bound(free.begin(), free.end(), id.value()),
                id.value());
  }
}

void Cluster::free_held(AppId app, std::vector<ExecutorId>& out) const {
  const auto it = free_held_.find(app.value());
  if (it == free_held_.end()) return;
  for (const ExecutorId::value_type id : it->second) {
    out.push_back(ExecutorId(id));
  }
}

std::size_t Cluster::free_held_count(AppId app) const {
  const auto it = free_held_.find(app.value());
  return it == free_held_.end() ? 0 : it->second.size();
}

ExecutorId Cluster::next_free_held(AppId app,
                                   ExecutorId::value_type from) const {
  const auto it = free_held_.find(app.value());
  if (it == free_held_.end()) return ExecutorId::invalid();
  const auto pos = std::lower_bound(it->second.begin(), it->second.end(), from);
  return pos == it->second.end() ? ExecutorId::invalid() : ExecutorId(*pos);
}

void Cluster::free_held_on(AppId app, NodeId node,
                           std::vector<ExecutorId>& out) const {
  // The constructor numbers executors node by node, executors_per_node ids
  // each, so the node's members of the free-held set are found by reading
  // its ledger slots directly — no search of the set.
  assert(node.value() < num_nodes_);
  const auto per_node = static_cast<std::size_t>(config_.executors_per_node);
  const std::size_t first = node.value() * per_node;
  for (std::size_t i = first; i < first + per_node; ++i) {
    const Executor& exec = executors_[i];
    if (exec.owner == app && !exec.busy) out.push_back(exec.id);
  }
}

bool Cluster::holds_on(AppId app, NodeId node) const {
  const auto it = owned_on_node_.find(app.value());
  return it != owned_on_node_.end() &&
         it->second.find(node.value()) != it->second.end();
}

const std::vector<int>* Cluster::held_counts(AppId app) const {
  const auto it = held_counts_.find(app.value());
  return it == held_counts_.end() ? nullptr : &it->second;
}

void Cluster::SaveTo(snap::SnapshotWriter& w) const {
  w.size(num_nodes_);
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    w.b(node_alive_[n]);
    w.f64(node_speed_[n]);
  }
  w.size(executors_.size());
  for (const Executor& exec : executors_) {
    w.u32(exec.owner.value());
    w.b(exec.busy);
  }
  w.u64(idle_index_.count());
}

void Cluster::RestoreFrom(snap::SnapshotReader& r) {
  const std::size_t nodes = r.size();
  if (nodes != num_nodes_) {
    throw snap::SnapshotError("Cluster node count mismatch: snapshot has " +
                              std::to_string(nodes) + ", cluster has " +
                              std::to_string(num_nodes_));
  }
  std::vector<bool> alive(num_nodes_);
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    alive[n] = r.b();
    node_speed_[n] = r.f64();
  }
  const std::size_t execs = r.size();
  if (execs != executors_.size()) {
    throw snap::SnapshotError(
        "Cluster executor count mismatch: snapshot has " +
        std::to_string(execs) + ", cluster has " +
        std::to_string(executors_.size()));
  }

  // Reset the ledger to the post-construction state, then replay the
  // snapshot through the public mutators so every derived structure (idle
  // index, held/free sets, per-node counts) is rebuilt by the same code
  // that maintains it live.
  node_alive_.assign(num_nodes_, true);
  owned_ids_.clear();
  owned_on_node_.clear();
  held_counts_.clear();
  free_held_.clear();
  idle_index_ = core::IdleExecutorIndex(executors_.size(), num_nodes_);
  for (Executor& exec : executors_) {
    exec.owner = AppId::invalid();
    exec.busy = false;
    idle_index_.add(exec.id, exec.node);
  }

  std::vector<AppId> owners(execs);
  std::vector<bool> busy(execs);
  for (std::size_t e = 0; e < execs; ++e) {
    owners[e] = AppId(r.u32());
    busy[e] = r.b();
    // Only an application's own task makes an executor busy.
    if (busy[e] && !owners[e].valid()) {
      throw snap::SnapshotError("Cluster: executor " + std::to_string(e) +
                                " is busy but has no owner");
    }
  }
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    if (!alive[n]) fail_node(NodeId(static_cast<NodeId::value_type>(n)));
  }
  for (std::size_t e = 0; e < execs; ++e) {
    if (owners[e].valid()) assign(executors_[e].id, owners[e]);
  }
  for (std::size_t e = 0; e < execs; ++e) {
    if (busy[e]) set_busy(executors_[e].id, true);
  }

  const std::uint64_t idle = r.u64();
  if (idle != idle_index_.count()) {
    throw snap::SnapshotError(
        "Cluster idle-index rebuild mismatch: snapshot recorded " +
        std::to_string(idle) + " idle executors, replay produced " +
        std::to_string(idle_index_.count()));
  }
}

void Cluster::held_nodes(AppId app, std::vector<NodeId>& out) const {
  const auto it = owned_on_node_.find(app.value());
  if (it == owned_on_node_.end()) return;
  for (const auto& [node, count] : it->second) {
    assert(count > 0);
    out.push_back(NodeId(node));
  }
}

}  // namespace custody::cluster
