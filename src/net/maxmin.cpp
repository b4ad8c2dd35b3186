#include "net/maxmin.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "common/snapshot.h"

namespace custody::net {

void MaxMinFairSolver::reset_links(std::vector<double> capacity) {
  capacity_ = std::move(capacity);
  link_flows_.assign(capacity_.size(), {});
  flows_.clear();
  live_slots_.clear();
  touch_stamp_.assign(capacity_.size(), 0);
  round_stamp_ = 0;
  comps_.clear();
  comp_of_link_.assign(capacity_.size(), kNoComponent);
  ceil_max_.assign(capacity_.size(), 0.0);
  ceil_holders_.assign(capacity_.size(), 0);
  binds_.assign(capacity_.size(), 0);
  dirty_comps_.clear();
  free_comp_ids_.clear();
  merged_comps_.clear();
  live_comps_ = 0;
  flow_stamp_.clear();
  bfs_epoch_ = 0;
}

std::uint32_t MaxMinFairSolver::alloc_component() {
  ++live_comps_;
  if (!free_comp_ids_.empty()) {
    const std::uint32_t id = free_comp_ids_.back();
    free_comp_ids_.pop_back();
    comps_[id].links.clear();
    comps_[id].dirty = false;
    comps_[id].live = true;
    return id;
  }
  comps_.emplace_back();
  comps_.back().live = true;
  return static_cast<std::uint32_t>(comps_.size() - 1);
}

void MaxMinFairSolver::mark_dirty(std::uint32_t comp) {
  if (comps_[comp].dirty) return;
  comps_[comp].dirty = true;
  dirty_comps_.push_back(comp);
}

std::uint32_t MaxMinFairSolver::merge_components(std::uint32_t target,
                                                  std::uint32_t c) {
  if (c == kNoComponent || c == target) return target;
  if (target == kNoComponent) return c;
  // Smaller into larger; the choice only affects which id survives, never
  // any solved rate.
  std::uint32_t winner = target;
  std::uint32_t loser = c;
  if (comps_[loser].links.size() > comps_[winner].links.size()) {
    std::swap(winner, loser);
  }
  for (const std::uint32_t l : comps_[loser].links) {
    comp_of_link_[l] = winner;
  }
  comps_[winner].links.insert(comps_[winner].links.end(),
                              comps_[loser].links.begin(),
                              comps_[loser].links.end());
  comps_[loser].links.clear();
  comps_[loser].live = false;
  --live_comps_;
  comps_[loser].dirty = false;
  // Freed at the next solve, after the delta reports the id retired — eager
  // reuse inside the same burst would alias a consumer's per-component
  // state.
  merged_comps_.push_back(loser);
  return winner;
}

double MaxMinFairSolver::ceil_of(const FlowEntry& flow,
                                 std::uint32_t i) const {
  double ceil = std::numeric_limits<double>::infinity();
  for (std::uint32_t j = 0; j < flow.degree; ++j) {
    if (j != i) ceil = std::min(ceil, capacity_[flow.link[j]]);
  }
  return ceil;
}

void MaxMinFairSolver::raise_ceil(std::uint32_t l, double ceil) {
  if (ceil_holders_[l] == 0 || ceil > ceil_max_[l]) {
    ceil_max_[l] = ceil;
    ceil_holders_[l] = 1;
  } else if (ceil == ceil_max_[l]) {
    ++ceil_holders_[l];
  }
}

void MaxMinFairSolver::lower_ceil(std::uint32_t l, double ceil) {
  if (ceil != ceil_max_[l] || --ceil_holders_[l] > 0) return;
  // The last flow holding the maximum left: re-derive it from the rest.
  ceil_max_[l] = 0.0;
  for (const std::uint32_t f : link_flows_[l]) {
    const FlowEntry& flow = flows_[f];
    for (std::uint32_t i = 0; i < flow.degree; ++i) {
      if (flow.link[i] == l) raise_ceil(l, ceil_of(flow, i));
    }
  }
}

void MaxMinFairSolver::update_binds(std::uint32_t l) {
  const std::size_t n = link_flows_[l].size();
  binds_[l] = n > 0 && (n >= kBindMarginMaxFlows ||
                        !(static_cast<double>(n) * ceil_max_[l] <
                          capacity_[l] * (1.0 - kBindMargin)));
}

void MaxMinFairSolver::partition_add(std::size_t slot) {
  const FlowEntry& flow = flows_[slot];
  // Merge the components of the flow's links that can bind into one.
  std::uint32_t target = kNoComponent;
  for (std::uint32_t i = 0; i < flow.degree; ++i) {
    const std::uint32_t l = flow.link[i];
    // Judged before this flow arrived.  Not comp_of_link_[l] != kNoComponent:
    // a link that stopped binding keeps the stale id of its dirty component
    // until the next solve.
    const bool could_bind = binds_[l] != 0;
    raise_ceil(l, ceil_of(flow, i));
    update_binds(l);
    if (!binds_[l]) continue;  // couples nothing
    target = merge_components(target, comp_of_link_[l]);
    if (could_bind) continue;
    // l just started to bind, so it now couples every flow already on it.
    // Merge each one's component through every id its links carry: a stale
    // id only over-merges a dirty component, which the next solve re-splits.
    for (const std::uint32_t f : link_flows_[l]) {
      const FlowEntry& other = flows_[f];
      for (std::uint32_t j = 0; j < other.degree; ++j) {
        target = merge_components(target, comp_of_link_[other.link[j]]);
      }
    }
  }
  // Every flow's smallest-capacity link can bind, so the loop above found
  // at least one link to claim.
  if (target == kNoComponent) target = alloc_component();
  for (std::uint32_t i = 0; i < flow.degree; ++i) {
    const std::uint32_t l = flow.link[i];
    if (binds_[l] && comp_of_link_[l] == kNoComponent) {
      comp_of_link_[l] = target;
      comps_[target].links.push_back(l);
    }
  }
  mark_dirty(target);
}

void MaxMinFairSolver::add_flow(std::size_t slot, const std::size_t* links,
                                std::size_t count) {
  assert(count >= 1 && count <= kMaxLinksPerFlow);
  if (slot >= flows_.size()) flows_.resize(slot + 1);
  FlowEntry& flow = flows_[slot];
  assert(!flow.live);
  flow.degree = static_cast<std::uint32_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto link = static_cast<std::uint32_t>(links[i]);
    assert(link < link_flows_.size());
    flow.link[i] = link;
    flow.pos[i] = static_cast<std::uint32_t>(link_flows_[link].size());
    link_flows_[link].push_back(static_cast<std::uint32_t>(slot));
  }
  flow.live = true;
  flow.live_pos = static_cast<std::uint32_t>(live_slots_.size());
  live_slots_.push_back(static_cast<std::uint32_t>(slot));
  partition_add(slot);
}

void MaxMinFairSolver::remove_flow(std::size_t slot) {
  assert(slot < flows_.size() && flows_[slot].live);
  FlowEntry& flow = flows_[slot];
  // All of a flow's links that can bind (judged before removal) share one
  // component; removal may split it or stop one of its links binding,
  // which the next solve discovers by re-partitioning.
  for (std::uint32_t i = 0; i < flow.degree; ++i) {
    if (!binds_[flow.link[i]]) continue;
    assert(comp_of_link_[flow.link[i]] != kNoComponent);
    mark_dirty(comp_of_link_[flow.link[i]]);
    break;
  }
  for (std::uint32_t i = 0; i < flow.degree; ++i) {
    std::vector<std::uint32_t>& list = link_flows_[flow.link[i]];
    const std::uint32_t pos = flow.pos[i];
    const std::uint32_t moved = list.back();
    list[pos] = moved;
    list.pop_back();
    if (moved != slot) {
      // Fix the moved flow's recorded position on this link.
      FlowEntry& other = flows_[moved];
      for (std::uint32_t j = 0; j < other.degree; ++j) {
        if (other.link[j] == flow.link[i] && other.pos[j] == list.size()) {
          other.pos[j] = pos;
          break;
        }
      }
    }
  }
  for (std::uint32_t i = 0; i < flow.degree; ++i) {
    lower_ceil(flow.link[i], ceil_of(flow, i));
    update_binds(flow.link[i]);
  }
  const std::uint32_t moved_slot = live_slots_.back();
  live_slots_[flow.live_pos] = moved_slot;
  live_slots_.pop_back();
  flows_[moved_slot].live_pos = flow.live_pos;
  flow.live = false;
  flow.degree = 0;
}

std::uint32_t MaxMinFairSolver::component_of_slot(std::size_t slot) const {
  assert(flow_live(slot));
  const FlowEntry& flow = flows_[slot];
  for (std::uint32_t i = 0; i < flow.degree; ++i) {
    if (binds_[flow.link[i]]) return comp_of_link_[flow.link[i]];
  }
  return kNoComponent;
}

template <class Self, class Io>
void MaxMinFairSolver::Fields(Self& self, Io& io) {
  std::size_t num_flows = self.flows_.size();
  std::size_t num_links = self.link_flows_.size();
  io.size(num_flows);
  io.size(num_links);
  if (num_links != self.capacity_.size()) {
    throw snap::SnapshotError(
        "MaxMinFairSolver link count mismatch: snapshot has " +
        std::to_string(num_links) + ", solver has " +
        std::to_string(self.capacity_.size()));
  }
  if constexpr (Io::kLoading) {
    self.link_flows_.assign(num_links, {});
    self.flows_.assign(num_flows, {});
  }
  for (auto& list : self.link_flows_) {
    snap::Seq(io, list, [&](auto& slot) {
      io.u32(slot);
      if (slot >= num_flows) {
        throw snap::SnapshotError(
            "MaxMinFairSolver: link list names slot " + std::to_string(slot) +
            " past the flow table (" + std::to_string(num_flows) + ")");
      }
    });
  }
}

void MaxMinFairSolver::SaveTo(snap::SnapshotWriter& w) const {
  Fields(*this, w);
}

void MaxMinFairSolver::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
  const std::size_t num_links = link_flows_.size();
  live_slots_.clear();
  // Rebuild each flow's incidence entries by walking links in ascending
  // index order — uplinks < downlinks < core in the Network's layout, which
  // is exactly the order add_flow recorded them in.
  for (std::size_t l = 0; l < num_links; ++l) {
    const auto& list = link_flows_[l];
    for (std::size_t pos = 0; pos < list.size(); ++pos) {
      FlowEntry& flow = flows_[list[pos]];
      if (flow.degree >= kMaxLinksPerFlow) {
        throw snap::SnapshotError(
            "MaxMinFairSolver: slot " + std::to_string(list[pos]) +
            " appears on more than " + std::to_string(kMaxLinksPerFlow) +
            " links");
      }
      flow.link[flow.degree] = static_cast<std::uint32_t>(l);
      flow.pos[flow.degree] = static_cast<std::uint32_t>(pos);
      ++flow.degree;
      if (!flow.live) {
        flow.live = true;
        flow.live_pos = static_cast<std::uint32_t>(live_slots_.size());
        live_slots_.push_back(list[pos]);
      }
    }
  }
  // Solve scratch: epoch-stamped or resized-on-demand, so zeroing it is
  // indistinguishable from any live history.
  rem_cap_.clear();
  unassigned_.clear();
  heap_.clear();
  assigned_.clear();
  touched_.clear();
  touch_stamp_.assign(num_links, 0);
  round_stamp_ = 0;
  flow_stamp_.clear();
  bfs_epoch_ = 0;
  rebuild_partition();
}

void MaxMinFairSolver::rebuild_partition() {
  // The partition is derived state: snapshots are taken with rates flushed,
  // so every component was clean (fully split) at save time, and rebuilding
  // the exact connected components here reproduces it — ceil_max_ is exact
  // for the flow set, so every link's can-bind state matches the live
  // run's.  Component ids and link/flow discovery order differ from the
  // live run's, but neither is observable — the restricted solves visit
  // links through the heap (keyed by share and link index) and flows
  // through link_flows_ order.
  comps_.clear();
  comp_of_link_.assign(capacity_.size(), kNoComponent);
  ceil_max_.assign(capacity_.size(), 0.0);
  ceil_holders_.assign(capacity_.size(), 0);
  binds_.assign(capacity_.size(), 0);
  dirty_comps_.clear();
  free_comp_ids_.clear();
  merged_comps_.clear();
  live_comps_ = 0;
  for (const std::uint32_t slot : live_slots_) {
    const FlowEntry& flow = flows_[slot];
    for (std::uint32_t i = 0; i < flow.degree; ++i) {
      raise_ceil(flow.link[i], ceil_of(flow, i));
    }
  }
  for (std::uint32_t l = 0; l < capacity_.size(); ++l) update_binds(l);
  for (std::size_t seed = 0; seed < capacity_.size(); ++seed) {
    if (comp_of_link_[seed] != kNoComponent || !binds_[seed]) continue;
    const std::uint32_t nc = alloc_component();
    ++bfs_epoch_;
    if (flow_stamp_.size() < flows_.size()) flow_stamp_.resize(flows_.size());
    bfs_queue_.clear();
    comp_of_link_[seed] = nc;
    comps_[nc].links.push_back(static_cast<std::uint32_t>(seed));
    bfs_queue_.push_back(static_cast<std::uint32_t>(seed));
    for (std::size_t qi = 0; qi < bfs_queue_.size(); ++qi) {
      const std::uint32_t l = bfs_queue_[qi];
      for (const std::uint32_t f : link_flows_[l]) {
        if (flow_stamp_[f] == bfs_epoch_) continue;
        flow_stamp_[f] = bfs_epoch_;
        const FlowEntry& flow = flows_[f];
        for (std::uint32_t i = 0; i < flow.degree; ++i) {
          const std::uint32_t lk = flow.link[i];
          if (!binds_[lk] || comp_of_link_[lk] == nc) continue;
          assert(comp_of_link_[lk] == kNoComponent);
          comp_of_link_[lk] = nc;
          comps_[nc].links.push_back(lk);
          bfs_queue_.push_back(lk);
        }
      }
    }
  }
}

// Min-heap ordering on (share, link index): the oracle's scan keeps the
// *first* strictly-smallest share, i.e. the lowest-indexed link among the
// minima, so ties must break toward the lower link index here too.
static bool HeapAfter(const MaxMinFairSolver::HeapEntry& a,
                      const MaxMinFairSolver::HeapEntry& b) {
  if (a.share != b.share) return a.share > b.share;
  return a.link > b.link;
}

void MaxMinFairSolver::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
}

MaxMinFairSolver::HeapEntry MaxMinFairSolver::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
  const HeapEntry entry = heap_.back();
  heap_.pop_back();
  return entry;
}

void MaxMinFairSolver::solve_component(
    std::uint32_t comp, const std::vector<std::uint32_t>& comp_flows,
    std::vector<double>& rates, SolveCounters* counters) {
  // The oracle's bottleneck loop on a heap, restricted to one component's
  // links and flows.  rem_cap_/unassigned_ persist across components but
  // only this component's entries are initialized and updated — a flow's
  // links outside the component cannot bind, and progressive filling over
  // the whole flow set never picks such a link as the bottleneck while it
  // has unfrozen flows, so its entries decide nothing.  The heap pop order
  // depends only on its (share, link) contents, never insertion order (keys
  // are unique per link), so seeding it from BFS-ordered links matches the
  // oracle's ascending-index scan bit for bit.
  const std::vector<std::uint32_t>& links = comps_[comp].links;
  if (rem_cap_.size() < capacity_.size()) rem_cap_.resize(capacity_.size());
  if (unassigned_.size() < capacity_.size()) {
    unassigned_.resize(capacity_.size());
  }
  if (assigned_.size() < flows_.size()) assigned_.resize(flows_.size(), 1);
  heap_.clear();
  for (const std::uint32_t l : links) {
    rem_cap_[l] = capacity_[l];
    unassigned_[l] = static_cast<std::uint32_t>(link_flows_[l].size());
    heap_push({rem_cap_[l] / unassigned_[l], l});
  }
  if (counters != nullptr) counters->links_scanned += links.size();
  for (const std::uint32_t f : comp_flows) assigned_[f] = 0;
  std::size_t remaining = comp_flows.size();

  while (remaining > 0) {
    assert(!heap_.empty());
    const HeapEntry top = heap_pop();
    if (counters != nullptr) ++counters->links_scanned;
    const std::uint32_t l = top.link;
    if (unassigned_[l] == 0) continue;  // drained since it was pushed
    const double share = rem_cap_[l] / unassigned_[l];
    if (share != top.share) {
      // Stale entry: the link's share grew after this push (shares are
      // monotone non-decreasing).  Re-queue it at its current share.
      heap_push({share, l});
      continue;
    }
    // `l` is the bottleneck: freeze every unassigned flow that crosses it.
    if (counters != nullptr) ++counters->rounds;
    ++round_stamp_;
    touched_.clear();
    for (const std::uint32_t f : link_flows_[l]) {
      if (counters != nullptr) ++counters->flows_scanned;
      if (assigned_[f]) continue;
      rates[f] = share;
      assigned_[f] = 1;
      --remaining;
      const FlowEntry& flow = flows_[f];
      for (std::uint32_t i = 0; i < flow.degree; ++i) {
        const std::uint32_t lk = flow.link[i];
        if (comp_of_link_[lk] != comp) continue;  // cannot bind
        rem_cap_[lk] = std::max(0.0, rem_cap_[lk] - share);
        --unassigned_[lk];
        if (touch_stamp_[lk] != round_stamp_) {
          touch_stamp_[lk] = round_stamp_;
          touched_.push_back(lk);
        }
      }
    }
    for (const std::uint32_t lk : touched_) {
      if (unassigned_[lk] == 0) continue;
      heap_push({rem_cap_[lk] / unassigned_[lk], lk});
      if (counters != nullptr) ++counters->links_scanned;
    }
  }
  for (const std::uint32_t f : comp_flows) assigned_[f] = 1;
}

void MaxMinFairSolver::solve(std::vector<double>& rates, SolveDelta& delta,
                             SolveCounters* counters) {
  if (rates.size() < flows_.size()) rates.resize(flows_.size(), 0.0);
  delta.clear();
  if (flow_stamp_.size() < flows_.size()) flow_stamp_.resize(flows_.size());

  for (const std::uint32_t c : merged_comps_) {
    delta.retired_components.push_back(c);
    free_comp_ids_.push_back(c);
  }
  merged_comps_.clear();

  const std::size_t num_dirty = dirty_comps_.size();
  for (std::size_t di = 0; di < num_dirty; ++di) {
    const std::uint32_t c = dirty_comps_[di];
    if (!comps_[c].live || !comps_[c].dirty) continue;  // merged away
    // Retire the dirty component: move its link list out (the id may be
    // reused by the first sub-component below) and release every link.
    links_scratch_.clear();
    links_scratch_.swap(comps_[c].links);
    comps_[c].live = false;
    comps_[c].dirty = false;
    --live_comps_;
    free_comp_ids_.push_back(c);
    delta.retired_components.push_back(c);
    if (counters != nullptr) ++counters->components_dirty;
    for (const std::uint32_t l : links_scratch_) {
      comp_of_link_[l] = kNoComponent;
    }
    // Re-partition by BFS over links that can bind: one fresh component per
    // connectivity class, solved immediately.  Links left with no flows, or
    // that stopped binding, drop out.
    for (const std::uint32_t seed : links_scratch_) {
      if (comp_of_link_[seed] != kNoComponent) continue;  // already claimed
      if (!binds_[seed]) continue;
      const std::uint32_t nc = alloc_component();
      ++bfs_epoch_;
      bfs_queue_.clear();
      comp_flows_.clear();
      comp_of_link_[seed] = nc;
      comps_[nc].links.push_back(seed);
      bfs_queue_.push_back(seed);
      for (std::size_t qi = 0; qi < bfs_queue_.size(); ++qi) {
        const std::uint32_t l = bfs_queue_[qi];
        for (const std::uint32_t f : link_flows_[l]) {
          if (flow_stamp_[f] == bfs_epoch_) continue;
          flow_stamp_[f] = bfs_epoch_;
          if (counters != nullptr) ++counters->flows_scanned;
          comp_flows_.push_back(f);
          const FlowEntry& flow = flows_[f];
          for (std::uint32_t i = 0; i < flow.degree; ++i) {
            const std::uint32_t lk = flow.link[i];
            if (!binds_[lk] || comp_of_link_[lk] == nc) continue;
            // Every link that can bind of a flow in a dirty component was
            // released above.
            assert(comp_of_link_[lk] == kNoComponent);
            comp_of_link_[lk] = nc;
            comps_[nc].links.push_back(lk);
            bfs_queue_.push_back(lk);
          }
        }
      }
      solve_component(nc, comp_flows_, rates, counters);
      delta.fresh_components.push_back(nc);
      delta.changed_slots.insert(delta.changed_slots.end(),
                                  comp_flows_.begin(), comp_flows_.end());
      delta.component_ends.push_back(
          static_cast<std::uint32_t>(delta.changed_slots.size()));
    }
  }
  dirty_comps_.clear();
  if (counters != nullptr) counters->components_total += live_component_count();
}

}  // namespace custody::net
