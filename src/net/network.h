// Fluid network model with max-min fair bandwidth sharing.
//
// Every remote block read and shuffle fetch is a *flow* from a source node's
// uplink to a destination node's downlink.  Rates are the classic max-min
// fair allocation over link capacities (progressive filling, or
// water-filling).  A single pending completion event tracks the next flow to
// finish; it is re-derived after every rate change.
//
// Flow-set changes only mark the rates dirty.  One solve runs per simulator
// event ("same-timestamp batching": a shuffle fan-out that starts k flows in
// one event costs one solve, not k), flushed by a simulator post-event hook
// or lazily when a rate is observed.  The solve runs on MaxMinFairSolver's
// persistent link-incidence structure and re-solves only the components
// dirtied since the last one.  When simulated time moves, one walk over
// the live flows moves their bytes and folds each component's soonest
// finish; the completion event is then re-armed from those minima, patched
// with the solve's delta for the components it rebuilt.  The rates equal
// the pure oracle MaxMinFairRates bit for bit (see maxmin.h).
//
// The default capacities mirror the paper's Linode nodes (Sec. VI-A):
// 40 Gbps downlink and 2 Gbps uplink per node.  An optional aggregate core
// capacity models an oversubscribed fabric for ablation experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "net/maxmin.h"
#include "sim/simulator.h"

namespace custody::obs {
class Tracer;
}

namespace custody::net {

struct NetworkConfig {
  std::size_t num_nodes = 0;
  double uplink_bps = units::Gbps(2.0);
  double downlink_bps = units::Gbps(40.0);
  /// Aggregate fabric capacity shared by all flows; 0 disables the bottleneck.
  double core_bps = 0.0;
};

/// What the rate path cost — surfaced in the experiment result next to the
/// manager's round stats so the batching and the asymptotic solver win
/// show up as counters, not just wall time.
struct NetStats {
  /// Flow-set changes that requested a rate recompute.
  std::uint64_t recomputes_requested = 0;
  /// Rate solves actually executed.
  std::uint64_t recomputes_run = 0;
  /// Flow-incidence entries visited across all solves.
  std::uint64_t flows_scanned = 0;
  /// Link inspections (scans or heap operations) across all solves.
  std::uint64_t links_scanned = 0;
  /// Bottleneck rounds across all solves.
  std::uint64_t rounds = 0;
  /// Live connectivity components after each solve, summed across solves.
  std::uint64_t components_total = 0;
  /// Dirty components re-solved across all solves.
  std::uint64_t components_dirty = 0;
  /// Flow rates (re)written by solves: the dirty components' flows.
  std::uint64_t rates_changed = 0;
  /// Wall-clock seconds spent inside rate solves.  Observation, not
  /// simulation state: snapshots leave it out.
  double wall_seconds = 0.0;

  /// Recomputes absorbed by same-timestamp batching.
  [[nodiscard]] std::uint64_t recomputes_batched() const {
    return recomputes_requested - recomputes_run;
  }
};

/// Owner-supplied recipe for rebuilding a flow's completion callback after
/// a snapshot restore.  The network round-trips it untouched; the field
/// meanings belong to the layer that starts the flow (the application packs
/// {callback kind, app, task, epoch}).  Closures cannot be serialized, so a
/// flow started without a label cannot be snapshotted — SaveTo fails loudly
/// on the first unlabeled live flow.
struct FlowLabel {
  static constexpr std::uint32_t kUnlabeled = 0xffffffffu;
  std::uint32_t kind = kUnlabeled;  ///< owner-defined callback kind
  std::uint32_t a = 0;              ///< owner-defined operands
  std::uint32_t b = 0;
  std::uint64_t c = 0;

  [[nodiscard]] bool labeled() const { return kind != kUnlabeled; }
};

class Network {
 public:
  using CompletionFn = std::function<void()>;
  /// Rebuilds a restored flow's completion callback from its label (plus
  /// the endpoints, which the label owner may need to disambiguate).
  using CompletionResolver =
      std::function<CompletionFn(FlowId, const FlowLabel&, NodeId src,
                                 NodeId dst)>;

  Network(sim::Simulator& sim, NetworkConfig config);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Begin transferring `bytes` from `src` to `dst`; `on_complete` fires in a
  /// simulator event when the last byte arrives.  src must differ from dst.
  /// `label` makes the flow snapshot-safe (see FlowLabel).
  FlowId start_flow(NodeId src, NodeId dst, double bytes,
                    CompletionFn on_complete, FlowLabel label = {});

  /// Abort an in-flight flow; its completion callback never fires.
  void cancel_flow(FlowId id);

  /// Current max-min fair rate of a live flow, bytes/second.  Flushes any
  /// pending recompute first, so mid-burst observations see final rates.
  [[nodiscard]] double flow_rate(FlowId id) const;

  /// Bytes still to transfer for a live flow (as of the last rate change).
  [[nodiscard]] double flow_remaining(FlowId id) const;

  [[nodiscard]] bool flow_active(FlowId id) const;
  [[nodiscard]] std::size_t active_flow_count() const { return live_count_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  /// Total bytes delivered since construction (for reporting).
  [[nodiscard]] double bytes_delivered() const { return bytes_delivered_; }

  /// Rate-path work counters (recomputes run/batched, scan counts, wall).
  [[nodiscard]] const NetStats& stats() const { return stats_; }

  /// Optional span tracing (null disables; the default).  Each executed rate
  /// solve is recorded as an instant; tracing never changes flow rates.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Lower bound on the time to ship `bytes` between two idle nodes.
  [[nodiscard]] double uncontended_transfer_time(double bytes) const;

  /// Serialize the flow table as its free list (in order) and its live
  /// flows in start order, each with its slot, so restored slot indices
  /// (which feed the solver's floating-point traversal order) match the
  /// live run — plus rates as last solved, the solver's link incidence,
  /// counters and the pending completion event's (time, seq).  Requires a
  /// flushed rate state (the post-event hook guarantees that at any
  /// between-events boundary) and a label on every live flow.
  void SaveTo(snap::SnapshotWriter& w) const;
  /// Rebuild from a snapshot taken on an identically-configured network:
  /// the slot table and its start-order list are rebuilt from the two
  /// lists, callbacks are re-created through `resolve`, rates are restored
  /// (not re-solved) and the completion event is re-armed under its
  /// original sequence number.  Every slot must be listed exactly once and
  /// the solver must hold exactly the live slots; an inconsistent snapshot
  /// throws snap::SnapshotError.
  void RestoreFrom(snap::SnapshotReader& r, const CompletionResolver& resolve);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// The snapshot layout; returns whether a completion event is pending.
  template <class Self, class Io>
  static bool Fields(Self& self, Io& io);

  /// One flow-table slot.  Slots are reused after a flow ends; the intrusive
  /// prev/next list preserves start order, which keeps completion-callback
  /// ordering deterministic and identical to the seed's vector scan while
  /// making cancel_flow O(1) instead of O(F).
  struct Slot {
    NodeId src;
    NodeId dst;
    double remaining = 0.0;
    double rate = 0.0;
    CompletionFn on_complete;
    FlowLabel label;
    FlowId id;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool live = false;
  };

  std::uint32_t alloc_slot();
  /// Append `slot` to the start-order list as a live flow.
  void link_slot(std::uint32_t slot);
  void unlink_slot(std::uint32_t slot);

  /// Account progress of all active flows since `last_update_`.
  void advance_progress();
  /// The one walk over the live flows, in start order: move each flow's
  /// bytes for `elapsed` seconds, append the finished ones to `done` (when
  /// given) and rebuild the per-component completion minima.  Runs only
  /// with flushed rates, so every live flow has a component.
  void walk_flows(double elapsed, std::vector<std::uint32_t>* done);
  /// A flow-set change happened: mark the rates dirty and let the
  /// end-of-event hook / next observation flush.
  void request_recompute();
  /// Run the pending recompute, if any.
  void flush();
  /// Recompute max-min rates and re-arm the next completion event.
  void recompute();
  void arm_completion_event();
  void on_completion_event();

  sim::Simulator& sim_;
  NetworkConfig config_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t head_ = kNil;  // oldest live flow (start order)
  std::uint32_t tail_ = kNil;
  std::size_t live_count_ = 0;
  std::unordered_map<FlowId, std::uint32_t> slot_of_;

  MaxMinFairSolver solver_;
  std::vector<double> rates_scratch_;
  bool dirty_ = false;
  sim::Simulator::HookId hook_ = 0;

  /// What the last solve changed (consumed by the completion re-arm; valid
  /// only between recompute() and arm_completion_event()).
  SolveDelta delta_;
  /// Per-component minimum of remaining/rate, NaN = no positive-rate flow
  /// or component retired.  Rebuilt by every walk; no simulated time
  /// passes between a walk and the re-arms that follow it, so they only
  /// patch the components each solve rebuilt.
  std::vector<double> comp_min_;
  /// Lazy min-heap over (delay, component); entries whose delay no longer
  /// matches comp_min_ are dropped on pop.
  struct CompMinEntry {
    double delay;
    std::uint32_t comp;
  };
  static bool CompHeapAfter(const CompMinEntry& a, const CompMinEntry& b) {
    if (a.delay != b.delay) return a.delay > b.delay;
    return a.comp > b.comp;
  }
  std::vector<CompMinEntry> comp_heap_;
  /// Slots a completion event's walk found finished (scratch).
  std::vector<std::uint32_t> finished_;

  SimTime last_update_ = 0.0;
  sim::EventHandle completion_event_;
  /// (time, seq) of the pending completion event, recorded at arm time so a
  /// snapshot can re-arm it under the original sequence number.
  SimTime completion_time_ = 0.0;
  std::uint64_t completion_seq_ = 0;
  FlowId::value_type next_flow_ = 0;
  double bytes_delivered_ = 0.0;
  NetStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

/// Pure function: max-min fair rates via progressive filling.
///
/// `flow_links[i]` lists the link indices flow i traverses; `capacity[l]` is
/// the capacity of link l.  Returns one rate per flow.  Exposed separately so
/// the fairness property can be unit-tested without a simulator.  This is the
/// oracle MaxMinFairSolver must match bit for bit; `counters` (optional)
/// accumulates the work it performed.
std::vector<double> MaxMinFairRates(
    const std::vector<std::vector<std::size_t>>& flow_links,
    const std::vector<double>& capacity, SolveCounters* counters = nullptr);

}  // namespace custody::net
