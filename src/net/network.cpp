#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/simtime.h"
#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::net {

namespace {
/// Bytes below which a flow is considered fully delivered (guards rounding).
constexpr double kByteEpsilon = 1e-6;
}  // namespace
// A flow whose remaining transfer time is below the clock's tolerance is
// also complete: leftover rounding bytes would otherwise map to a delay
// smaller than the double-precision resolution of the clock, so the
// completion event could never advance time.  The tolerance comes from
// TimeEpsilonAt(now) (common/simtime.h) because the clock's resolution is
// one ulp of `now`, not any absolute constant — at steady-state horizons an
// absolute 1e-9 is far below one ulp and the re-armed completion event
// would fire at the same timestamp forever.

std::vector<double> MaxMinFairRates(
    const std::vector<std::vector<std::size_t>>& flow_links,
    const std::vector<double>& capacity, SolveCounters* counters) {
  const std::size_t num_flows = flow_links.size();
  const std::size_t num_links = capacity.size();
  std::vector<double> rate(num_flows, 0.0);
  if (num_flows == 0) return rate;

  std::vector<double> rem_cap = capacity;
  std::vector<std::size_t> unassigned_on(num_links, 0);
  std::vector<bool> assigned(num_flows, false);
  for (const auto& links : flow_links) {
    for (std::size_t l : links) {
      assert(l < num_links);
      ++unassigned_on[l];
    }
  }

  std::size_t remaining = num_flows;
  // A flow that traverses no link is never frozen by any bottleneck, so
  // `remaining` would never reach 0 and release builds (assert compiled
  // out) would spin forever.  Such a flow is unconstrained: give it
  // unbounded rate up front.
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flow_links[f].empty()) {
      rate[f] = std::numeric_limits<double>::infinity();
      assigned[f] = true;
      --remaining;
    }
  }
  while (remaining > 0) {
    // Find the bottleneck link: smallest fair share among links that still
    // carry unassigned flows.
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = num_links;
    for (std::size_t l = 0; l < num_links; ++l) {
      if (unassigned_on[l] == 0) continue;
      const double share = rem_cap[l] / static_cast<double>(unassigned_on[l]);
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    assert(best_link < num_links);

    // Freeze every unassigned flow that traverses the bottleneck.
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (assigned[f]) continue;
      const auto& links = flow_links[f];
      if (std::find(links.begin(), links.end(), best_link) == links.end()) {
        continue;
      }
      rate[f] = best_share;
      assigned[f] = true;
      --remaining;
      for (std::size_t l : links) {
        rem_cap[l] = std::max(0.0, rem_cap[l] - best_share);
        --unassigned_on[l];
      }
    }
    if (counters != nullptr) {
      ++counters->rounds;
      counters->links_scanned += num_links;
      counters->flows_scanned += num_flows;
    }
  }
  return rate;
}

Network::Network(sim::Simulator& sim, NetworkConfig config)
    : sim_(sim), config_(config) {
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("Network: num_nodes must be positive");
  }
  if (config_.uplink_bps <= 0.0 || config_.downlink_bps <= 0.0) {
    throw std::invalid_argument("Network: link capacities must be positive");
  }
  last_update_ = sim_.now();
  // Link layout: [0, N) uplinks, [N, 2N) downlinks, optional 2N = core.
  const std::size_t n = config_.num_nodes;
  const bool has_core = config_.core_bps > 0.0;
  std::vector<double> capacity(2 * n + (has_core ? 1 : 0));
  for (std::size_t i = 0; i < n; ++i) {
    capacity[i] = config_.uplink_bps;
    capacity[n + i] = config_.downlink_bps;
  }
  if (has_core) capacity[2 * n] = config_.core_bps;
  solver_.reset_links(std::move(capacity));
  // End-of-burst flush: the simulator runs this between events, so any
  // number of same-timestamp start/cancel/completion mutations collapse
  // into one recompute before the next event (or rate observation).
  hook_ = sim_.add_post_event_hook([this] { flush(); });
}

Network::~Network() { sim_.remove_post_event_hook(hook_); }

double Network::uncontended_transfer_time(double bytes) const {
  double rate = std::min(config_.uplink_bps, config_.downlink_bps);
  if (config_.core_bps > 0.0) rate = std::min(rate, config_.core_bps);
  return bytes / rate;
}

std::uint32_t Network::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Network::link_slot(std::uint32_t slot) {
  Slot& f = slots_[slot];
  f.prev = tail_;
  f.next = kNil;
  f.live = true;
  if (tail_ != kNil) {
    slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++live_count_;
}

void Network::unlink_slot(std::uint32_t slot) {
  Slot& f = slots_[slot];
  if (f.prev != kNil) {
    slots_[f.prev].next = f.next;
  } else {
    head_ = f.next;
  }
  if (f.next != kNil) {
    slots_[f.next].prev = f.prev;
  } else {
    tail_ = f.prev;
  }
  f.live = false;
  f.on_complete = nullptr;
  free_slots_.push_back(slot);
  --live_count_;
}

FlowId Network::start_flow(NodeId src, NodeId dst, double bytes,
                           CompletionFn on_complete, FlowLabel label) {
  if (src == dst) {
    throw std::invalid_argument("Network: flow source equals destination");
  }
  if (bytes <= 0.0) {
    throw std::invalid_argument("Network: flow must carry positive bytes");
  }
  assert(src.value() < config_.num_nodes && dst.value() < config_.num_nodes);

  advance_progress();
  const FlowId id(next_flow_++);
  const std::uint32_t slot = alloc_slot();
  Slot& f = slots_[slot];
  f.src = src;
  f.dst = dst;
  f.remaining = bytes;
  f.rate = 0.0;
  f.on_complete = std::move(on_complete);
  f.label = label;
  f.id = id;
  link_slot(slot);
  slot_of_.emplace(id, slot);

  const std::size_t n = config_.num_nodes;
  const std::size_t links[MaxMinFairSolver::kMaxLinksPerFlow] = {
      src.value(), n + dst.value(), 2 * n};
  solver_.add_flow(slot, links, config_.core_bps > 0.0 ? 3 : 2);
  request_recompute();
  return id;
}

void Network::cancel_flow(FlowId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;
  advance_progress();
  const std::uint32_t slot = it->second;
  slot_of_.erase(it);
  solver_.remove_flow(slot);
  unlink_slot(slot);
  request_recompute();
}

double Network::flow_rate(FlowId id) const {
  // Rates are flushed lazily so mid-burst observers always see the rates
  // the burst will settle on (no simulated time passes inside a burst).
  const_cast<Network*>(this)->flush();
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? 0.0 : slots_[it->second].rate;
}

double Network::flow_remaining(FlowId id) const {
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? 0.0 : slots_[it->second].remaining;
}

bool Network::flow_active(FlowId id) const { return slot_of_.count(id) > 0; }

void Network::advance_progress() {
  const SimTime now = sim_.now();
  const double elapsed = now - last_update_;
  last_update_ = now;
  if (elapsed > 0.0) walk_flows(elapsed, nullptr);
}

void Network::walk_flows(double elapsed, std::vector<std::uint32_t>* done) {
  assert(!dirty_);  // time must never pass with stale rates
  const double time_epsilon = TimeEpsilonAt(sim_.now());
  comp_min_.assign(solver_.component_count(),
                   std::numeric_limits<double>::quiet_NaN());
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    Slot& flow = slots_[s];
    const double moved = std::min(flow.remaining, flow.rate * elapsed);
    flow.remaining -= moved;
    bytes_delivered_ += moved;
    if (done != nullptr &&
        (flow.remaining <= kByteEpsilon ||
         (flow.rate > 0.0 && flow.remaining <= flow.rate * time_epsilon))) {
      done->push_back(s);
    }
    if (flow.rate <= 0.0) continue;
    const std::uint32_t c = solver_.component_of_slot(s);
    assert(c != MaxMinFairSolver::kNoComponent);
    const double d = flow.remaining / flow.rate;
    double& m = comp_min_[c];
    if (std::isnan(m) || d < m) m = d;
  }
  comp_heap_.clear();
  for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(comp_min_.size());
       ++c) {
    if (!std::isnan(comp_min_[c])) comp_heap_.push_back({comp_min_[c], c});
  }
  std::make_heap(comp_heap_.begin(), comp_heap_.end(), CompHeapAfter);
}

void Network::request_recompute() {
  ++stats_.recomputes_requested;
  dirty_ = true;  // flushed by the post-event hook or a rate observation
}

void Network::flush() {
  if (!dirty_) return;
  dirty_ = false;
  recompute();
}

void Network::recompute() {
  ++stats_.recomputes_run;
  const auto wall_start = std::chrono::steady_clock::now();
  SolveCounters counters;
  // Only dirty components were re-solved, so only their slots' rates can
  // have changed — copy those and leave clean components untouched.
  solver_.solve(rates_scratch_, delta_, &counters);
  for (const std::uint32_t s : delta_.changed_slots) {
    slots_[s].rate = rates_scratch_[s];
  }
  const std::size_t changed = delta_.changed_slots.size();
  stats_.rates_changed += changed;
  stats_.components_total += counters.components_total;
  stats_.components_dirty += counters.components_dirty;
  stats_.flows_scanned += counters.flows_scanned;
  stats_.links_scanned += counters.links_scanned;
  stats_.rounds += counters.rounds;
  const double solve_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  stats_.wall_seconds += solve_wall;
  if (tracer_ != nullptr) {
    tracer_->instant({.value = solve_wall,
                      .id = static_cast<std::int32_t>(live_count_),
                      .aux = static_cast<std::int32_t>(changed),
                      .kind = obs::EventKind::kRateSolve});
  }
  arm_completion_event();
}

void Network::arm_completion_event() {
  completion_event_.cancel();
  if (live_count_ == 0) {
    // Every component is retired; the next solve builds fresh ones.
    comp_min_.clear();
    comp_heap_.clear();
    return;
  }
  // comp_min_ holds each component's soonest remaining/rate as of the last
  // walk, and no simulated time has passed since: a clean component kept
  // its rates and bytes, so its minimum still stands.  Patch the components
  // this solve retired and rebuilt; a min over disjoint groups is the min
  // of the group minima, so `soonest` is the exact value a scan of every
  // flow would produce.
  for (const std::uint32_t c : delta_.retired_components) {
    if (c < comp_min_.size()) {
      comp_min_[c] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  if (comp_min_.size() < solver_.component_count()) {
    comp_min_.resize(solver_.component_count(),
                     std::numeric_limits<double>::quiet_NaN());
  }
  std::size_t begin = 0;
  for (std::size_t i = 0; i < delta_.fresh_components.size(); ++i) {
    const std::uint32_t c = delta_.fresh_components[i];
    const std::size_t end = delta_.component_ends[i];
    double m = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t k = begin; k < end; ++k) {
      const Slot& flow = slots_[delta_.changed_slots[k]];
      if (flow.rate <= 0.0) continue;
      const double d = flow.remaining / flow.rate;
      if (std::isnan(m) || d < m) m = d;
    }
    comp_min_[c] = m;
    if (!std::isnan(m)) {
      comp_heap_.push_back({m, c});
      std::push_heap(comp_heap_.begin(), comp_heap_.end(), CompHeapAfter);
    }
    begin = end;
  }
  // Lazy peek: drop entries whose component was retired or re-solved to a
  // different minimum since they were pushed.
  double soonest = std::numeric_limits<double>::infinity();
  while (!comp_heap_.empty()) {
    const CompMinEntry top = comp_heap_.front();
    if (top.comp < comp_min_.size() && comp_min_[top.comp] == top.delay) {
      soonest = top.delay;
      break;
    }
    std::pop_heap(comp_heap_.begin(), comp_heap_.end(), CompHeapAfter);
    comp_heap_.pop_back();
  }
  if (!std::isfinite(soonest)) {
    // Every live flow has rate 0 (a rounding collapse in the progressive
    // filling) or a remaining/rate that overflows (a rate too small for its
    // bytes): no completion event can be armed, and the run would end as if
    // the flows had drained.  Fail loudly.
    throw std::runtime_error(
        "Network: none of the " + std::to_string(live_count_) +
        " live flows can finish — every rate is 0 (rounding collapse in "
        "progressive filling) or remaining/rate overflows the clock");
  }
  const double delay = std::max(0.0, soonest);
  completion_event_ = sim_.schedule(delay, [this] { on_completion_event(); });
  completion_time_ = sim_.now() + delay;
  completion_seq_ = sim_.last_event_seq();
}

template <class Self, class Io>
bool Network::Fields(Self& self, Io& io) {
  // The flow table is its free list, then its live flows in start order.
  // Its size (the two lists' lengths), the start-order links and the live
  // count follow from them; the restore rebuilds those, and each slot must
  // be listed exactly once.
  snap::Seq(io, self.free_slots_, [&io](auto& s) { io.u32(s); });
  std::size_t live = self.live_count_;
  io.size(live);
  std::vector<bool> listed;
  const auto list_slot = [&listed](std::uint32_t s) {
    if (s >= listed.size() || listed[s]) {
      throw snap::SnapshotError("Network: slot " + std::to_string(s) +
                                " is listed twice or past the flow table (" +
                                std::to_string(listed.size()) + " slots)");
    }
    listed[s] = true;
  };
  if constexpr (Io::kLoading) {
    self.slots_.assign(live + self.free_slots_.size(), Slot{});
    self.head_ = self.tail_ = kNil;
    self.live_count_ = 0;
    listed.assign(self.slots_.size(), false);
    for (const std::uint32_t s : self.free_slots_) list_slot(s);
  }
  std::uint32_t slot = self.head_;
  for (std::size_t i = 0; i < live; ++i) {
    io.u32(slot);
    if constexpr (Io::kLoading) {
      list_slot(slot);
      self.link_slot(slot);
    }
    auto& f = self.slots_[slot];
    io.u32(f.src);
    io.u32(f.dst);
    io.f64(f.remaining);
    io.f64(f.rate);
    io.u32(f.label.kind);
    io.u32(f.label.a);
    io.u32(f.label.b);
    io.u64(f.label.c);
    io.u32(f.id);
    slot = f.next;  // restoring: kNil, the next read overwrites it
  }
  io.u32(self.next_flow_);
  io.f64(self.bytes_delivered_);
  io.f64(self.last_update_);
  auto& stats = self.stats_;
  for (auto* counter :
       {&stats.recomputes_requested, &stats.recomputes_run,
        &stats.flows_scanned, &stats.links_scanned, &stats.rounds,
        &stats.components_total, &stats.components_dirty,
        &stats.rates_changed}) {
    io.u64(*counter);
  }
  bool pending =
      self.completion_event_.valid() && !self.completion_event_.cancelled();
  io.b(pending);
  if (pending) {
    io.f64(self.completion_time_);
    io.u64(self.completion_seq_);
  }
  io.layer(self.solver_);
  return pending;
}

void Network::SaveTo(snap::SnapshotWriter& w) const {
  if (dirty_) {
    throw snap::SnapshotError(
        "Network: rates are dirty at the snapshot point; snapshots must be "
        "taken between events, after the post-event flush");
  }
  for (const Slot& f : slots_) {
    if (f.live && !f.label.labeled()) {
      throw snap::SnapshotError(
          "Network: live flow " + std::to_string(f.id.value()) +
          " has no FlowLabel — its completion callback cannot be rebuilt");
    }
  }
  Fields(*this, w);
}

void Network::RestoreFrom(snap::SnapshotReader& r,
                          const CompletionResolver& resolve) {
  const bool pending = Fields(*this, r);
  dirty_ = false;
  slot_of_.clear();
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    Slot& f = slots_[s];
    if (f.src.value() >= config_.num_nodes ||
        f.dst.value() >= config_.num_nodes) {
      throw snap::SnapshotError(
          "Network: restored flow endpoints exceed num_nodes");
    }
    if (f.id.value() >= next_flow_) {
      throw snap::SnapshotError("Network: live flow id " +
                                std::to_string(f.id.value()) +
                                " is not below the next flow id " +
                                std::to_string(next_flow_));
    }
    if (!slot_of_.emplace(f.id, s).second) {
      throw snap::SnapshotError("Network: flow id " +
                                std::to_string(f.id.value()) +
                                " is live twice");
    }
    f.on_complete = resolve(f.id, f.label, f.src, f.dst);
  }
  // The solver's link lists name their slots independently of the flow
  // table; they must name exactly the live flows.
  if (solver_.flow_count() != live_count_) {
    throw snap::SnapshotError(
        "Network: solver holds " + std::to_string(solver_.flow_count()) +
        " flows, the flow table " + std::to_string(live_count_));
  }
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    if (!solver_.flow_live(s)) {
      throw snap::SnapshotError("Network: live flow slot " +
                                std::to_string(s) + " is not in the solver");
    }
  }
  completion_event_ = sim::EventHandle();
  if (pending) {
    completion_event_ = sim_.rearm_at(completion_time_, completion_seq_,
                                      [this] { on_completion_event(); });
  }
  // The partition itself was rebuilt inside the solver (it is derived
  // state); a walk that moves no bytes rebuilds the completion minima.
  walk_flows(0.0, nullptr);
  delta_.clear();
}

void Network::on_completion_event() {
  // The walk runs even when no time has passed: it finds the finished flows.
  const SimTime now = sim_.now();
  const double elapsed = now - last_update_;
  last_update_ = now;
  finished_.clear();
  walk_flows(elapsed, &finished_);

  // Collect finished flows first, then mutate state, then run callbacks:
  // callbacks routinely start new flows re-entrantly.  The walk visits
  // flows in start order, matching the seed's vector scan, so completion
  // callbacks fire in the same deterministic order.
  std::vector<CompletionFn> callbacks;
  callbacks.reserve(finished_.size());
  for (const std::uint32_t s : finished_) {
    Slot& flow = slots_[s];
    callbacks.push_back(std::move(flow.on_complete));
    slot_of_.erase(flow.id);
    solver_.remove_flow(s);
    unlink_slot(s);
  }
  request_recompute();

  for (auto& cb : callbacks) {
    if (cb) cb();
  }
}

}  // namespace custody::net
