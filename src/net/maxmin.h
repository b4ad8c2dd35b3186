// Incremental max-min fair rate solver.
//
// The pure oracle (`MaxMinFairRates` in network.h) rescans every flow and
// every link per bottleneck round: O(rounds x (F + L)) per solve.  This
// solver keeps the flow->link incidence persistent across solves (flows
// are added/removed as they start, cancel, or complete) and replaces the
// scan-everything bottleneck search with a lazy min-heap of links keyed by
// fair share, so one solve costs ~O((F*d + L) log L) with
// d <= kMaxLinksPerFlow links per flow.
//
// It also maintains a partition of the flows and re-solves only the
// components dirtied since the last solve, leaving clean components' rates
// untouched.  Components couple flows only through links that can bind: a
// link l *cannot bind* when n_l * ceil_max(l) < cap_l * (1 - kBindMargin),
// where ceil_max(l) is the largest, over l's flows, of the smallest
// capacity among the flow's other links.  Progressive filling never freezes
// a flow above the capacity of any of its links, so such a link keeps its
// fair share above the share of another link of each of its unfrozen flows
// and is never popped as a bottleneck; leaving it out of every component
// changes no division or subtraction.  Components are the connected
// components of the graph whose nodes are the links that can bind and
// whose edges are the flows (every flow's smallest-capacity link can bind),
// so a shuffle's fetch flows, coupled only through downlinks that cannot
// bind, split into one component per uplink.
//
// The rates are bit-identical to the oracle's: bottleneck links are
// processed in the same order (smallest fair share first, lowest link index
// on ties) and every link sees the same capacity subtractions, so every
// division and comparison sees the same operands (DESIGN.md §3).  The
// solver churn properties in tests/net_equivalence_test.cpp compare against
// the oracle bit for bit and check a max-min certificate after every solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace custody::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace custody::snap

namespace custody::net {

/// Work counters for one or more rate solves — the observability that shows
/// the asymptotic win (entries visited, not just wall time).
struct SolveCounters {
  /// Flow-incidence entries visited while freezing bottlenecked flows.
  std::uint64_t flows_scanned = 0;
  /// Link inspections: per-round share scans (oracle) or heap pushes, pops
  /// and initializations (solver).
  std::uint64_t links_scanned = 0;
  /// Bottleneck rounds executed.
  std::uint64_t rounds = 0;
  /// Live connectivity components after each solve, summed across solves.
  std::uint64_t components_total = 0;
  /// Dirty components actually re-solved.
  std::uint64_t components_dirty = 0;
};

/// What one solve changed: the slots whose rates were
/// (re)written, grouped by the freshly built component that owns them, plus
/// the component ids retired since the previous solve.  Clean components'
/// slots never appear here — their rates are untouched by the solve — so
/// the Network can re-estimate its single pending completion event from the
/// changed flows plus the surviving per-component minima instead of
/// rescanning every live flow.
struct SolveDelta {
  /// Slots re-solved this call, grouped by fresh component (all slots of
  /// fresh component i occupy [component_ends[i-1], component_ends[i])).
  std::vector<std::uint32_t> changed_slots;
  /// End offset into changed_slots per entry of fresh_components.
  std::vector<std::uint32_t> component_ends;
  /// Component ids (re)built by this solve, parallel to component_ends.
  std::vector<std::uint32_t> fresh_components;
  /// Component ids that stopped existing (merged away or rebuilt).  Ids may
  /// be reused by fresh_components of the same delta; consumers must retire
  /// before adopting.
  std::vector<std::uint32_t> retired_components;
  /// Slots of zero-degree flows assigned an unbounded rate this call.
  std::vector<std::uint32_t> unconstrained_slots;

  void clear() {
    changed_slots.clear();
    component_ends.clear();
    fresh_components.clear();
    retired_components.clear();
    unconstrained_slots.clear();
  }
};

class MaxMinFairSolver {
 public:
  /// A network-model flow touches at most its source uplink, its
  /// destination downlink and the optional shared core link.
  static constexpr std::size_t kMaxLinksPerFlow = 3;

  /// Component id of a link outside the partition (no flows, or it cannot
  /// bind) / of a zero-degree flow.
  static constexpr std::uint32_t kNoComponent = 0xffffffffu;

  /// Relative margin δ of the can-bind test.  A link that cannot bind must
  /// keep its fair share strictly above ceil_max(l) in floating point while
  /// it has unfrozen flows; that holds when δ covers the rounding of at most
  /// n clamped subtractions, one division and the test's own two products:
  /// δ >= (n + 4) * 2^-53.  1e-9 satisfies it below ~9.0e6 flows on one
  /// link; a link carrying kBindMarginMaxFlows or more always binds.
  static constexpr double kBindMargin = 1e-9;
  static constexpr std::size_t kBindMarginMaxFlows =
      static_cast<std::size_t>(kBindMargin * 0x1p53) - 4;

  /// (Re)define the link set; drops every registered flow.
  void reset_links(std::vector<double> capacity);

  /// Register flow `slot` traversing `links[0..count)` (distinct link
  /// indices, count <= kMaxLinksPerFlow).  Slots are caller-managed dense
  /// indices and may be reused after remove_flow.
  void add_flow(std::size_t slot, const std::size_t* links, std::size_t count);

  /// Unregister a flow; O(degree) via swap-removal from its link lists.
  void remove_flow(std::size_t slot);

  /// Bring `rates[slot]` up to date with the max-min fair rates of every
  /// registered flow (resized to cover the highest slot; dead slots keep
  /// their previous values).  Only components dirtied by add_flow /
  /// remove_flow since the last solve are re-solved — clean components'
  /// entries in `rates` are left untouched — and `delta` reports exactly
  /// which slots were rewritten and which component ids were built/retired.
  /// Allocation-free after warmup: all scratch buffers are reused.
  void solve(std::vector<double>& rates, SolveDelta& delta,
             SolveCounters* counters = nullptr);

  [[nodiscard]] std::size_t flow_count() const { return live_slots_.size(); }
  /// True when `slot` holds a registered flow.
  [[nodiscard]] bool flow_live(std::size_t slot) const {
    return slot < flows_.size() && flows_[slot].live;
  }

  /// Upper bound on component ids in use; sized for per-component side
  /// tables.
  [[nodiscard]] std::size_t component_count() const { return comps_.size(); }
  /// Component of a live flow: that of its first link that can bind
  /// (kNoComponent for a zero-degree flow).
  [[nodiscard]] std::uint32_t component_of_slot(std::size_t slot) const;
  /// Live components right now.
  [[nodiscard]] std::size_t live_component_count() const {
    return live_comps_;
  }

  /// Serialize the per-link flow lists verbatim.  Their element order is
  /// floating-point-order-sensitive: solve() subtracts the bottleneck share
  /// from rem_cap in link_flows_ traversal order, and that order depends on
  /// the whole add/remove history (swap-removal), so it cannot be rebuilt
  /// from the live flow set.  Everything else — each flow's link/pos
  /// entries, the live set, the can-bind state and partition, all solve
  /// scratch — is derived on restore.
  /// Capacities are not serialized: reset_links must already have been
  /// called with the same link layout (it is config-derived).
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

  /// Heap entry: a link and the fair share it had when pushed.  Entries go
  /// stale when the link's share grows; stale entries are dropped (and the
  /// fresh share re-pushed) lazily on pop.
  struct HeapEntry {
    double share;
    std::uint32_t link;
  };

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  struct FlowEntry {
    std::uint32_t link[kMaxLinksPerFlow] = {0, 0, 0};
    /// Position of this flow inside link_flows_[link[i]].
    std::uint32_t pos[kMaxLinksPerFlow] = {0, 0, 0};
    std::uint32_t degree = 0;
    std::uint32_t live_pos = 0;  ///< position inside live_slots_
    bool live = false;
  };

  /// One connected component of the graph of links that can bind.  Every
  /// flow on a member link belongs to the component (a flow's links that can
  /// bind are always all in the same component); links that cannot bind
  /// belong to none once the component is re-solved.  A dirty component may
  /// still list links that stopped binding since its last solve (their
  /// comp_of_link_ entry is stale until then).
  struct Component {
    std::vector<std::uint32_t> links;
    bool dirty = false;
    bool live = false;
  };

  void heap_push(HeapEntry entry);
  HeapEntry heap_pop();

  std::uint32_t alloc_component();
  /// Mark the component dirty (idempotent) and queue it for the next solve.
  void mark_dirty(std::uint32_t comp);
  /// Merge component `c` with `target` (smaller into larger) and return the
  /// survivor; either may be kNoComponent.
  std::uint32_t merge_components(std::uint32_t target, std::uint32_t c);
  /// ceil(f, l) for l = flow.link[i]: the smallest capacity among the
  /// flow's other links (infinity for a one-link flow).
  [[nodiscard]] double ceil_of(const FlowEntry& flow, std::uint32_t i) const;
  /// Book a flow with ceil `ceil` arriving on link l into ceil_max_.
  void raise_ceil(std::uint32_t l, double ceil);
  /// Book a flow with ceil `ceil` that left link l (already swap-removed
  /// from link_flows_[l]); rescans l's flows when the last holder of the
  /// maximum leaves.
  void lower_ceil(std::uint32_t l, double ceil);
  /// Re-derive binds_[l] from l's flow count and ceil_max_.
  void update_binds(std::uint32_t l);
  /// Attach a freshly added flow to the partition: update its links'
  /// can-bind state, merge the components of its links that can bind (and,
  /// for a link that just started to bind, of every flow already on it),
  /// claim unowned links, mark dirty.
  void partition_add(std::size_t slot);
  /// Run the bottleneck loop restricted to the links of freshly built
  /// component `comp` and its flows `comp_flows`; each flow's links outside
  /// the component are skipped.
  void solve_component(std::uint32_t comp,
                       const std::vector<std::uint32_t>& comp_flows,
                       std::vector<double>& rates, SolveCounters* counters);
  /// Rebuild the can-bind state and the partition from link_flows_ (restore
  /// path): BFS over links that can bind, seeded in ascending index order.
  /// Deterministic, all clean.
  void rebuild_partition();

  std::vector<double> capacity_;
  std::vector<std::vector<std::uint32_t>> link_flows_;
  std::vector<FlowEntry> flows_;           // indexed by slot
  std::vector<std::uint32_t> live_slots_;  // unordered; swap-removed

  // Partition state.
  /// Per link: max ceil(f, l) over its flows (0 when it has none), how many
  /// of its flows hold that maximum, and whether it can bind.  Exact for the
  /// current flow set, so a restore re-derives the live partition.
  std::vector<double> ceil_max_;
  std::vector<std::uint32_t> ceil_holders_;
  std::vector<std::uint8_t> binds_;
  std::vector<Component> comps_;
  std::vector<std::uint32_t> comp_of_link_;   // kNoComponent = unowned
  std::vector<std::uint32_t> dirty_comps_;    // queued for the next solve
  std::vector<std::uint32_t> free_comp_ids_;
  std::size_t live_comps_ = 0;
  /// Ids merged away since the last solve; reported retired, then freed.
  std::vector<std::uint32_t> merged_comps_;
  /// Zero-degree slots added since the last solve (rate := infinity there).
  std::vector<std::uint32_t> zero_degree_pending_;

  // Scratch reused across solves (allocation-free recomputes).
  std::vector<double> rem_cap_;
  std::vector<std::uint32_t> unassigned_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint8_t> assigned_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint64_t> touch_stamp_;
  std::uint64_t round_stamp_ = 0;
  // Re-partition scratch: BFS frontier, the dirty component's link list
  // (moved out so its id can be reused), per-flow visit stamps.
  std::vector<std::uint32_t> bfs_queue_;
  std::vector<std::uint32_t> links_scratch_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<std::uint64_t> flow_stamp_;
  std::uint64_t bfs_epoch_ = 0;
};

}  // namespace custody::net
