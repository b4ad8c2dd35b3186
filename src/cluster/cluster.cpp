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
    }
  }
  index_all_idle();
}

void Cluster::index_all_idle() {
  std::vector<NodeId> home;
  home.reserve(executors_.size());
  for (const Executor& exec : executors_) home.push_back(exec.node);
  idle_index_.add_all(home);
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

namespace {

using IdList = std::vector<ExecutorId::value_type>;

void Insert(IdList& ids, ExecutorId::value_type id) {
  const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  assert(pos == ids.end() || *pos != id);
  ids.insert(pos, id);
}

void Erase(IdList& ids, ExecutorId::value_type id) {
  const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  assert(pos != ids.end() && *pos == id);
  if (pos != ids.end() && *pos == id) ids.erase(pos);
}

/// The lowest id in `ids` that is >= `from`; invalid when none.
ExecutorId Successor(const IdList& ids, ExecutorId::value_type from) {
  const auto pos = std::lower_bound(ids.begin(), ids.end(), from);
  return pos == ids.end() ? ExecutorId::invalid() : ExecutorId(*pos);
}

}  // namespace

const Cluster::AppLedger* Cluster::ledger(AppId app) const {
  const auto it = apps_.find(app.value());
  return it == apps_.end() ? nullptr : &it->second;
}

void Cluster::set_free(AppLedger& ledger, const Executor& exec, bool free) {
  if (free) {
    Insert(ledger.free, exec.id.value());
    if (ledger.watches(exec.node)) Insert(ledger.free_watched, exec.id.value());
  } else {
    Erase(ledger.free, exec.id.value());
    if (ledger.watches(exec.node)) Erase(ledger.free_watched, exec.id.value());
  }
}

void Cluster::assign(std::span<const ExecutorId> ids, AppId app) {
  // Every id is checked before any changes hands.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Executor& exec = executor(ids[i]);
    if (i > 0 && !(ids[i - 1] < ids[i])) {
      throw std::invalid_argument("Cluster: assigned ids must ascend");
    }
    if (!node_alive_[exec.node.value()]) {
      throw std::logic_error("Cluster: assigning executor on a failed node");
    }
    if (exec.allocated()) {
      throw std::logic_error("Cluster: executor already allocated");
    }
    assert(!exec.busy);
  }
  if (ids.empty()) return;
  AppLedger& ledger = apps_[app.value()];
  if (ledger.held_counts.empty()) ledger.held_counts.assign(num_nodes_, 0);
  // Ascending ids above everything the app holds (a registration batch)
  // land at the ends of its sorted lists: appends, no memmove.
  for (const ExecutorId id : ids) {
    Executor& exec = executors_[id.value()];
    exec.owner = app;
    idle_index_.remove(id, exec.node);
    Insert(ledger.held, id.value());
    ++ledger.held_counts[exec.node.value()];
    set_free(ledger, exec, true);
  }
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
  const auto it = apps_.find(exec.owner.value());
  assert(it != apps_.end());
  AppLedger& ledger = it->second;
  Erase(ledger.held, exec.id.value());
  --ledger.held_counts[exec.node.value()];
  // Busy executors are not in the free sets (fail_node drops them busy).
  if (!exec.busy) set_free(ledger, exec, false);
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
  const AppLedger* l = ledger(app);
  return l == nullptr ? 0 : static_cast<int>(l->held.size());
}

void Cluster::held_executors(AppId app, std::vector<ExecutorId>& out) const {
  const AppLedger* l = ledger(app);
  if (l == nullptr) return;
  for (const ExecutorId::value_type id : l->held) out.push_back(ExecutorId(id));
}

void Cluster::set_busy(ExecutorId id, bool busy) {
  Executor& exec = executor(id);
  if (exec.busy == busy) return;
  exec.busy = busy;
  if (!exec.allocated()) return;  // unowned executors live in the idle index
  const auto it = apps_.find(exec.owner.value());
  assert(it != apps_.end());
  set_free(it->second, exec, !busy);
}

void Cluster::free_held(AppId app, std::vector<ExecutorId>& out) const {
  const AppLedger* l = ledger(app);
  if (l == nullptr) return;
  for (const ExecutorId::value_type id : l->free) out.push_back(ExecutorId(id));
}

std::size_t Cluster::free_held_count(AppId app) const {
  const AppLedger* l = ledger(app);
  return l == nullptr ? 0 : l->free.size();
}

ExecutorId Cluster::next_free_held(AppId app,
                                   ExecutorId::value_type from) const {
  const AppLedger* l = ledger(app);
  return l == nullptr ? ExecutorId::invalid() : Successor(l->free, from);
}

void Cluster::set_watched(AppId app, NodeId node, bool watched) {
  if (node.value() >= num_nodes_) {
    throw std::out_of_range("Cluster: unknown node");
  }
  AppLedger& ledger = apps_[app.value()];
  if (ledger.watched.empty()) ledger.watched.assign(num_nodes_, false);
  if (ledger.watched[node.value()] == watched) return;
  ledger.watched[node.value()] = watched;
  // The constructor numbers executors node by node, executors_per_node ids
  // each, so the node's free executors are read from its ledger slots
  // directly — no search of the free set.
  const auto per_node = static_cast<std::size_t>(config_.executors_per_node);
  const std::size_t first = node.value() * per_node;
  for (std::size_t i = first; i < first + per_node; ++i) {
    const Executor& exec = executors_[i];
    if (exec.owner != app || exec.busy) continue;
    if (watched) {
      Insert(ledger.free_watched, exec.id.value());
    } else {
      Erase(ledger.free_watched, exec.id.value());
    }
  }
}

ExecutorId Cluster::next_free_watched(AppId app,
                                      ExecutorId::value_type from) const {
  const AppLedger* l = ledger(app);
  return l == nullptr ? ExecutorId::invalid()
                      : Successor(l->free_watched, from);
}

std::size_t Cluster::free_watched_count(AppId app) const {
  const AppLedger* l = ledger(app);
  return l == nullptr ? 0 : l->free_watched.size();
}

bool Cluster::holds_on(AppId app, NodeId node) const {
  assert(node.value() < num_nodes_);
  const std::vector<int>* counts = held_counts(app);
  return counts != nullptr && (*counts)[node.value()] > 0;
}

const std::vector<int>* Cluster::held_counts(AppId app) const {
  const AppLedger* l = ledger(app);
  return l == nullptr || l->held_counts.empty() ? nullptr : &l->held_counts;
}

template <class Self, class Io>
void Cluster::Fields(Self& self, Io& io) {
  std::size_t nodes = self.num_nodes_;
  io.size(nodes);
  if (nodes != self.num_nodes_) {
    throw snap::SnapshotError("Cluster node count mismatch: snapshot has " +
                              std::to_string(nodes) + ", cluster has " +
                              std::to_string(self.num_nodes_));
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    io.b(self.node_alive_[n]);
    io.f64(self.node_speed_[n]);
  }
  std::size_t execs = self.executors_.size();
  io.size(execs);
  if (execs != self.executors_.size()) {
    throw snap::SnapshotError(
        "Cluster executor count mismatch: snapshot has " +
        std::to_string(execs) + ", cluster has " +
        std::to_string(self.executors_.size()));
  }
  for (auto& exec : self.executors_) {
    io.u32(exec.owner);
    io.b(exec.busy);
    // Only an application's own task makes an executor busy.
    if (exec.busy && !exec.owner.valid()) {
      throw snap::SnapshotError("Cluster: executor " +
                                std::to_string(exec.id.value()) +
                                " is busy but has no owner");
    }
  }
  if constexpr (Io::kLoading) self.replay_restored_ledger();
  std::uint64_t idle = self.idle_index_.count();
  io.u64(idle);
  if (idle != self.idle_index_.count()) {
    throw snap::SnapshotError(
        "Cluster idle-index rebuild mismatch: snapshot recorded " +
        std::to_string(idle) + " idle executors, replay produced " +
        std::to_string(self.idle_index_.count()));
  }
}

void Cluster::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }
void Cluster::RestoreFrom(snap::SnapshotReader& r) { Fields(*this, r); }

void Cluster::replay_restored_ledger() {
  // The replay goes through the public mutators, so every derived structure
  // (idle index, held/free sets, per-node counts) is rebuilt by the same
  // code that maintains it live.
  const std::vector<bool> alive = node_alive_;
  std::vector<Executor> restored = executors_;
  node_alive_.assign(num_nodes_, true);
  apps_.clear();
  for (Executor& exec : executors_) {
    exec.owner = AppId::invalid();
    exec.busy = false;
  }
  idle_index_ = core::IdleExecutorIndex(executors_.size(), num_nodes_);
  index_all_idle();
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    if (!alive[n]) fail_node(NodeId(static_cast<NodeId::value_type>(n)));
  }
  for (const Executor& exec : restored) {
    if (exec.owner.valid()) assign(exec.id, exec.owner);
  }
  for (const Executor& exec : restored) {
    if (exec.busy) set_busy(exec.id, true);
  }
}

}  // namespace custody::cluster
