// Correctness of the max-min rate path, three ways.
//
//  - Solver level: MaxMinFairSolver under randomized churn must equal the
//    pure oracle MaxMinFairRates bit for bit, report complete deltas and the
//    partition an independent oracle derives, and pass a max-min
//    certificate after every solve.
//  - Network level: 48 randomized churn scenarios (same-timestamp bursts,
//    cancels, completion-driven restarts) must reproduce golden digests of
//    their completion order and times, rate samples, bytes and events, and
//    every rate probe must pass the certificate.
//  - Experiment level: golden outcome digests of Sort runs on four fabrics
//    under all four managers.
//
// The digests were recorded while a recompute-per-change reference path
// and a global (unpartitioned) solve still ran beside this one and agreed
// with it bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/manager_factory.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/units.h"
#include "net/maxmin.h"
#include "net/network.h"
#include "outcome_digest.h"
#include "sim/simulator.h"
#include "workload/experiment.h"

namespace custody::net {
namespace {

using custody::NodeId;
using custody::Rng;

/// Relative tolerance of the max-min certificate below.
constexpr double kCertificateTolerance = 1e-9;

/// Max-min certificate for `rates` over `flow_links` / `capacity`, checked
/// without reference to how the rates were computed, in O(F*d):
///  - feasible: the rates on each link sum to at most its capacity;
///  - every flow with links has a bottleneck: a saturated link on which no
///    flow has a larger rate;
///  - a flow with no links is unconstrained (infinite rate).
/// A feasible allocation is max-min fair exactly when every flow has a
/// bottleneck link.
testing::AssertionResult IsMaxMinFair(
    const std::vector<std::vector<std::size_t>>& flow_links,
    const std::vector<double>& capacity, const std::vector<double>& rates) {
  const double tol = kCertificateTolerance;
  std::vector<double> load(capacity.size(), 0.0);
  std::vector<double> fastest(capacity.size(), 0.0);
  for (std::size_t f = 0; f < flow_links.size(); ++f) {
    if (flow_links[f].empty()) {
      if (!std::isinf(rates[f])) {
        return testing::AssertionFailure()
               << "flow " << f << " crosses no link but has rate " << rates[f];
      }
      continue;
    }
    if (!std::isfinite(rates[f]) || rates[f] < 0.0) {
      return testing::AssertionFailure()
             << "flow " << f << " has rate " << rates[f];
    }
    for (const std::size_t l : flow_links[f]) {
      load[l] += rates[f];
      fastest[l] = std::max(fastest[l], rates[f]);
    }
  }
  for (std::size_t l = 0; l < capacity.size(); ++l) {
    if (load[l] > capacity[l] * (1.0 + tol)) {
      return testing::AssertionFailure()
             << "link " << l << " carries " << load[l] << " over its capacity "
             << capacity[l];
    }
  }
  for (std::size_t f = 0; f < flow_links.size(); ++f) {
    if (flow_links[f].empty()) continue;
    bool bottlenecked = false;
    for (const std::size_t l : flow_links[f]) {
      const bool saturated = load[l] >= capacity[l] * (1.0 - tol);
      if (saturated && rates[f] >= fastest[l] * (1.0 - tol)) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked) {
      return testing::AssertionFailure()
             << "flow " << f << " at rate " << rates[f]
             << " has no saturated link on which it is the fastest";
    }
  }
  return testing::AssertionSuccess();
}

// ---------- solver vs. oracle ------------------------------------------------

// Random link sets and flow churn (interleaved adds and removes with slot
// reuse); after every mutation batch the persistent solver's rates must be
// bitwise equal to a from-scratch oracle pass over the same live set and
// pass the max-min certificate.
TEST(MaxMinFairSolver, BitIdenticalToReferenceUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919);
    const std::size_t num_links = static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<double> capacity(num_links);
    for (auto& c : capacity) c = rng.uniform(1.0, 1000.0);

    MaxMinFairSolver solver;
    solver.reset_links(capacity);

    struct LiveFlow {
      std::size_t slot;
      std::vector<std::size_t> links;
    };
    std::vector<LiveFlow> live;       // in add order (slot-stable)
    std::vector<std::size_t> free_slots;
    std::size_t next_slot = 0;
    std::vector<double> rates;
    SolveDelta delta;

    const int batches = rng.uniform_int(5, 15);
    for (int batch = 0; batch < batches; ++batch) {
      // Remove a random subset.
      for (std::size_t i = live.size(); i-- > 0;) {
        if (live.size() > 0 && rng.uniform(0.0, 1.0) < 0.3) {
          solver.remove_flow(live[i].slot);
          free_slots.push_back(live[i].slot);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      // Add a few new flows, reusing slots like the Network does.
      const int adds = rng.uniform_int(1, 8);
      for (int a = 0; a < adds; ++a) {
        std::size_t slot;
        if (!free_slots.empty()) {
          slot = free_slots.back();
          free_slots.pop_back();
        } else {
          slot = next_slot++;
        }
        std::vector<std::size_t> links;
        // Every flow crosses a link; a zero degree takes one without
        // consuming a draw.
        const int degree = rng.uniform_int(0, 3);
        for (int d = 0; d < degree; ++d) {
          const std::size_t l = rng.index(num_links);
          if (std::find(links.begin(), links.end(), l) == links.end()) {
            links.push_back(l);
          }
        }
        if (degree == 0) links.push_back(slot % num_links);
        solver.add_flow(slot, links.data(), links.size());
        live.push_back({slot, links});
      }

      solver.solve(rates, delta);

      // Oracle over the same live set.  Flow order is irrelevant to the
      // result (the per-link subtractions commute bitwise), but use add
      // order anyway, mirroring the Network's insertion-order walk.
      std::vector<std::vector<std::size_t>> ref_links;
      ref_links.reserve(live.size());
      for (const auto& f : live) ref_links.push_back(f.links);
      const std::vector<double> ref = MaxMinFairRates(ref_links, capacity);

      ASSERT_EQ(ref.size(), live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(rates[live[i].slot], ref[i])  // bitwise: no tolerance
            << "seed " << seed << " batch " << batch << " flow " << i;
      }
      std::vector<double> live_rates;
      for (const auto& f : live) live_rates.push_back(rates[f.slot]);
      EXPECT_TRUE(IsMaxMinFair(ref_links, capacity, live_rates))
          << "seed " << seed << " batch " << batch;
    }
  }
}

// Counters must reflect the asymptotic win.  The oracle rescans every flow
// and every link per bottleneck round; the solver touches only entries
// incident to the round's bottleneck.  With F flows on F *distinct*
// bottlenecks (worst case for the scan: F rounds) the oracle does
// ~F x (F + 2L) work.  The solver sees F one-link components (each
// downlink carries one flow and cannot bind), so it scans each flow twice
// (once in the re-partitioning BFS, once when freezing it) and each uplink
// twice (heap seed and pop): O(F + L).
TEST(MaxMinFairSolver, CountersShowSubLinearPerRoundWork) {
  const std::size_t n = 100;  // nodes -> 200 links
  std::vector<double> capacity(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    capacity[i] = 10.0 + static_cast<double>(i);  // distinct uplink shares
    capacity[n + i] = 1e9;
  }
  MaxMinFairSolver solver;
  solver.reset_links(capacity);
  std::vector<std::vector<std::size_t>> flow_links;
  for (std::size_t f = 0; f < n; ++f) {
    const std::size_t links[2] = {f, n + f};
    solver.add_flow(f, links, 2);
    flow_links.push_back({f, n + f});
  }
  std::vector<double> rates;
  SolveDelta delta;
  SolveCounters inc;
  solver.solve(rates, delta, &inc);
  SolveCounters ref;
  const auto ref_rates = MaxMinFairRates(flow_links, capacity, &ref);
  for (std::size_t f = 0; f < n; ++f) EXPECT_EQ(rates[f], ref_rates[f]);

  // Every flow is its own bottleneck: F rounds on both paths.
  EXPECT_EQ(ref.rounds, n);
  EXPECT_EQ(inc.rounds, n);
  EXPECT_EQ(inc.components_dirty, n);
  EXPECT_EQ(inc.components_total, n);
  // Oracle: per-round full rescans.  Solver: two visits per flow and per
  // uplink, no rescans — over an order of magnitude fewer link inspections.
  EXPECT_EQ(ref.links_scanned, ref.rounds * 2 * n);
  EXPECT_EQ(ref.flows_scanned, ref.rounds * n);
  EXPECT_EQ(inc.flows_scanned, 2 * n);
  EXPECT_EQ(inc.links_scanned, 2 * n);
  EXPECT_LT(inc.links_scanned * 10, ref.links_scanned);

  // A churn of one flow re-solves only its own component.
  solver.remove_flow(0);
  solver.add_flow(0, flow_links[0].data(), 2);
  SolveCounters churn;
  solver.solve(rates, delta, &churn);
  EXPECT_EQ(churn.components_dirty, 1u);
  EXPECT_EQ(churn.flows_scanned, 2u);
  EXPECT_EQ(delta.changed_slots, std::vector<std::uint32_t>{0});
}

// ---------- the partition ----------------------------------------------------

/// The partition the solver must report, derived from a live-flow list
/// alone.  A link can bind unless n * ceil_max < cap * (1 - margin), where
/// ceil_max is the largest, over the link's flows, of the smallest capacity
/// among each flow's other links; the classes are a union-find over links
/// that can bind, joined by the flows.
struct OraclePartition {
  static constexpr std::size_t kNoClass = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> flow_class;  ///< per flow; kNoClass when linkless
  std::size_t classes = 0;
};

OraclePartition PartitionOracle(
    const std::vector<std::vector<std::size_t>>& flow_links,
    const std::vector<double>& capacity) {
  const std::size_t num_links = capacity.size();
  std::vector<std::size_t> flows_on(num_links, 0);
  std::vector<double> ceil_max(num_links, 0.0);
  for (const auto& links : flow_links) {
    for (const std::size_t l : links) {
      double ceil = std::numeric_limits<double>::infinity();
      for (const std::size_t other : links) {
        if (other != l) ceil = std::min(ceil, capacity[other]);
      }
      ++flows_on[l];
      ceil_max[l] = std::max(ceil_max[l], ceil);
    }
  }
  std::vector<bool> binds(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    binds[l] = flows_on[l] > 0 &&
               !(static_cast<double>(flows_on[l]) * ceil_max[l] <
                 capacity[l] * (1.0 - MaxMinFairSolver::kBindMargin));
  }
  std::vector<std::size_t> parent(num_links);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  OraclePartition out;
  for (const auto& links : flow_links) {
    std::size_t first = OraclePartition::kNoClass;
    for (const std::size_t l : links) {
      if (!binds[l]) continue;
      if (first == OraclePartition::kNoClass) {
        first = l;
      } else {
        parent[find(l)] = find(first);
      }
    }
    // Every flow's smallest-capacity link can bind.
    EXPECT_EQ(first == OraclePartition::kNoClass, links.empty());
  }
  for (const auto& links : flow_links) {
    std::size_t cls = OraclePartition::kNoClass;
    for (const std::size_t l : links) {
      if (binds[l]) {
        cls = find(l);
        break;
      }
    }
    out.flow_class.push_back(cls);
  }
  for (std::size_t l = 0; l < num_links; ++l) {
    if (binds[l] && find(l) == l) ++out.classes;
  }
  return out;
}

// The solver under randomized churn with more links and flows: rates must
// stay bitwise equal to the from-scratch oracle and pass the max-min
// certificate, AND the SolveDelta must be complete — a shadow rate table
// updated *only* from reported deltas has to agree with the oracle too,
// which catches both a changed-but-unreported slot (stale shadow) and a
// clean component being needlessly re-solved (checked via the dirty
// counter).
TEST(MaxMinFairSolver, PartitionedBitIdenticalWithCompleteDeltas) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 104729);
    const std::size_t num_links =
        static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<double> capacity(num_links);
    for (auto& c : capacity) c = rng.uniform(1.0, 1000.0);

    MaxMinFairSolver solver;
    solver.reset_links(capacity);

    struct LiveFlow {
      std::size_t slot;
      std::vector<std::size_t> links;
    };
    std::vector<LiveFlow> live;
    std::vector<std::size_t> free_slots;
    std::size_t next_slot = 0;
    std::vector<double> rates;
    std::vector<double> shadow;  // written only from SolveDelta entries
    SolveCounters counters;
    SolveDelta delta;

    const int batches = rng.uniform_int(5, 15);
    for (int batch = 0; batch < batches; ++batch) {
      for (std::size_t i = live.size(); i-- > 0;) {
        if (live.size() > 0 && rng.uniform(0.0, 1.0) < 0.3) {
          solver.remove_flow(live[i].slot);
          free_slots.push_back(live[i].slot);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      const int adds = rng.uniform_int(1, 8);
      for (int a = 0; a < adds; ++a) {
        std::size_t slot;
        if (!free_slots.empty()) {
          slot = free_slots.back();
          free_slots.pop_back();
        } else {
          slot = next_slot++;
        }
        std::vector<std::size_t> links;
        // Every flow crosses a link; a zero degree takes one without
        // consuming a draw.
        const int degree = rng.uniform_int(0, 3);
        for (int d = 0; d < degree; ++d) {
          const std::size_t l = rng.index(num_links);
          if (std::find(links.begin(), links.end(), l) == links.end()) {
            links.push_back(l);
          }
        }
        if (degree == 0) links.push_back(slot % num_links);
        solver.add_flow(slot, links.data(), links.size());
        live.push_back({slot, links});
      }

      const SolveCounters before = counters;
      solver.solve(rates, delta, &counters);
      // Each solve adds the live components to the total and re-solves
      // only components it retires.
      EXPECT_EQ(counters.components_total - before.components_total,
                solver.live_component_count())
          << "seed " << seed << " batch " << batch;
      EXPECT_LE(counters.components_dirty - before.components_dirty,
                delta.retired_components.size())
          << "seed " << seed << " batch " << batch;

      // Delta framing: one end offset per fresh component, monotone, the
      // last covering every changed slot.
      ASSERT_EQ(delta.component_ends.size(), delta.fresh_components.size());
      std::uint32_t prev_end = 0;
      for (const std::uint32_t end : delta.component_ends) {
        ASSERT_GE(end, prev_end);
        prev_end = end;
      }
      ASSERT_EQ(prev_end, delta.changed_slots.size());

      if (shadow.size() < rates.size()) shadow.resize(rates.size(), -1.0);
      for (const std::uint32_t slot : delta.changed_slots) {
        shadow[slot] = rates[slot];
      }

      std::vector<std::vector<std::size_t>> ref_links;
      ref_links.reserve(live.size());
      for (const auto& f : live) ref_links.push_back(f.links);
      const std::vector<double> ref = MaxMinFairRates(ref_links, capacity);

      ASSERT_EQ(ref.size(), live.size());
      std::vector<double> live_rates;
      for (const auto& f : live) live_rates.push_back(rates[f.slot]);
      EXPECT_TRUE(IsMaxMinFair(ref_links, capacity, live_rates))
          << "seed " << seed << " batch " << batch;
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t slot = live[i].slot;
        EXPECT_EQ(rates[slot], ref[i])
            << "seed " << seed << " batch " << batch << " flow " << i;
        EXPECT_EQ(shadow[slot], ref[i])
            << "delta missed a changed slot: seed " << seed << " batch "
            << batch << " flow " << i;
        // Every live flow has a component.
        EXPECT_NE(solver.component_of_slot(slot),
                  MaxMinFairSolver::kNoComponent)
            << "seed " << seed << " batch " << batch << " flow " << i;
      }
      // The partition couples flows only through links that can bind: it
      // must match an oracle recomputed from the live list.
      const OraclePartition oracle = PartitionOracle(ref_links, capacity);
      EXPECT_EQ(solver.live_component_count(), oracle.classes)
          << "seed " << seed << " batch " << batch;
      for (std::size_t i = 0; i < live.size(); ++i) {
        for (std::size_t j = 0; j < live.size(); ++j) {
          EXPECT_EQ(solver.component_of_slot(live[i].slot) ==
                        solver.component_of_slot(live[j].slot),
                    oracle.flow_class[i] == oracle.flow_class[j])
              << "seed " << seed << " batch " << batch << " flows " << i
              << ", " << j;
        }
      }
    }
  }
}

// One 40 Gbps downlink fed by distinct 2 Gbps uplinks cannot bind below 20
// flows (19 x 2 < 40), so each flow is its own component; the 20th flow makes
// it bind and couples them all, and removing one splits them again.  Every
// step matches the oracle bitwise, and a snapshot taken after any step
// restores the same partition and keeps matching through the later steps.
TEST(MaxMinFairSolver, DownlinkJoinsThePartitionOnlyOnceItCanBind) {
  constexpr std::size_t kUplinks = 20;
  constexpr std::size_t kDownlink = kUplinks;
  std::vector<double> capacity(kUplinks + 1, units::Gbps(2.0));
  capacity[kDownlink] = units::Gbps(40.0);
  std::vector<std::vector<std::size_t>> links_of(kUplinks);  // empty = free

  auto add = [&](std::size_t slot) {
    return [&, slot](MaxMinFairSolver& s) {
      links_of[slot] = {slot, kDownlink};
      s.add_flow(slot, links_of[slot].data(), 2);
    };
  };
  struct Step {
    std::vector<std::function<void(MaxMinFairSolver&)>> changes;
    std::size_t components;
  };
  std::vector<Step> steps(3);
  for (std::size_t slot = 0; slot < 19; ++slot) {
    steps[0].changes.push_back(add(slot));
  }
  steps[0].components = 19;
  steps[1] = {{add(19)}, 1};
  steps[2] = {{[&](MaxMinFairSolver& s) {
                 s.remove_flow(7);
                 links_of[7].clear();
               }},
              19};

  struct Twin {
    MaxMinFairSolver solver;
    std::vector<double> rates;
  };
  Twin original;
  original.solver.reset_links(capacity);
  std::vector<Twin> restored;  // one per earlier step
  SolveDelta delta;
  for (std::size_t step = 0; step < steps.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<Twin*> instances = {&original};
    for (Twin& twin : restored) instances.push_back(&twin);
    for (Twin* twin : instances) {
      for (const auto& change : steps[step].changes) change(twin->solver);
      twin->solver.solve(twin->rates, delta);
    }

    std::vector<std::vector<std::size_t>> live_links;
    std::vector<std::size_t> live_slots;
    for (std::size_t slot = 0; slot < kUplinks; ++slot) {
      if (links_of[slot].empty()) continue;
      live_links.push_back(links_of[slot]);
      live_slots.push_back(slot);
    }
    const std::vector<double> ref = MaxMinFairRates(live_links, capacity);
    EXPECT_EQ(original.solver.live_component_count(), steps[step].components);
    EXPECT_EQ(PartitionOracle(live_links, capacity).classes,
              steps[step].components);
    for (std::size_t i = 0; i < live_slots.size(); ++i) {
      EXPECT_EQ(original.rates[live_slots[i]], ref[i]) << "flow " << i;
    }
    for (std::size_t t = 0; t < restored.size(); ++t) {
      EXPECT_EQ(restored[t].solver.live_component_count(),
                steps[step].components)
          << "restored after step " << t;
      for (const std::size_t slot : live_slots) {
        EXPECT_EQ(restored[t].rates[slot], original.rates[slot])
            << "restored after step " << t << " slot " << slot;
      }
    }

    // Snapshot this step into a fresh instance; rates travel by copy, as in
    // Network::RestoreFrom.
    snap::SnapshotWriter w;
    original.solver.SaveTo(w);
    snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
    restored.emplace_back();
    restored.back().solver.reset_links(capacity);
    restored.back().solver.RestoreFrom(r);
    restored.back().rates = original.rates;
    EXPECT_EQ(restored.back().solver.live_component_count(),
              steps[step].components);
  }
}

// A zero-capacity link freezes its flows at rate 0, as in the oracle; the
// link is still connectivity (it can merge components) even though it carries no
// bandwidth.
TEST(MaxMinFairSolver, ZeroCapacityLinkBitIdentical) {
  const std::vector<double> capacity = {0.0, 100.0, 50.0};
  MaxMinFairSolver solver;
  solver.reset_links(capacity);
  const std::size_t f0[2] = {0, 1};  // through the dead link
  const std::size_t f1[2] = {1, 2};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, delta, &counters);

  const std::vector<double> ref =
      MaxMinFairRates({{0, 1}, {1, 2}}, capacity);
  EXPECT_EQ(rates[0], ref[0]);
  EXPECT_EQ(rates[1], ref[1]);
  EXPECT_EQ(rates[0], 0.0);  // bottlenecked by the dead link
  EXPECT_GT(rates[1], 0.0);
  // Link 1 is shared, so both flows live in one component.
  EXPECT_EQ(solver.live_component_count(), 1u);
  EXPECT_EQ(solver.component_of_slot(0), solver.component_of_slot(1));
}

// Slot reuse across solves: the partition must track the slot's *new* links,
// not remember the old ones.  The emptied component retires; the reused slot
// joins (and merges into) whatever its new links touch.
TEST(MaxMinFairSolver, SlotReuseAcrossSolvesRepartitionsExactly) {
  const std::vector<double> capacity = {10.0, 20.0, 30.0, 40.0};
  MaxMinFairSolver solver;
  solver.reset_links(capacity);
  const std::size_t f0[2] = {0, 1};
  const std::size_t f1[2] = {2, 3};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(solver.live_component_count(), 2u);

  // Retire flow 0; its component (links 0, 1) dissolves at the next solve.
  solver.remove_flow(0);
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(solver.live_component_count(), 1u);

  // Reuse slot 0 with different links: one unowned (1), one owned (2).
  const std::size_t reused[2] = {1, 2};
  solver.add_flow(0, reused, 2);
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(solver.live_component_count(), 1u);
  EXPECT_EQ(solver.component_of_slot(0), solver.component_of_slot(1));

  const std::vector<double> ref =
      MaxMinFairRates({{1, 2}, {2, 3}}, capacity);
  EXPECT_EQ(rates[0], ref[0]);
  EXPECT_EQ(rates[1], ref[1]);
}

// A kMaxLinksPerFlow-degree flow landing across three separate components
// must merge all three: two ids retire by the merge, the third by the
// rebuild, and a single fresh component covers every affected slot.
TEST(MaxMinFairSolver, MaxDegreeFlowMergesThreeComponents) {
  static_assert(MaxMinFairSolver::kMaxLinksPerFlow == 3);
  const std::vector<double> capacity = {10.0, 20.0, 30.0, 40.0, 50.0, 60.0};
  MaxMinFairSolver solver;
  solver.reset_links(capacity);
  const std::size_t f0[2] = {0, 1};
  const std::size_t f1[2] = {2, 3};
  const std::size_t f2[2] = {4, 5};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  solver.add_flow(2, f2, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(solver.live_component_count(), 3u);
  EXPECT_EQ(delta.fresh_components.size(), 3u);

  const std::size_t bridge[3] = {1, 3, 5};  // one link from each component
  solver.add_flow(3, bridge, 3);
  const SolveCounters before = counters;
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(solver.live_component_count(), 1u);
  // Two components merged away + the merge target rebuilt = 3 retirements,
  // one fresh component containing every flow.
  EXPECT_EQ(delta.retired_components.size(), 3u);
  ASSERT_EQ(delta.fresh_components.size(), 1u);
  EXPECT_EQ(delta.changed_slots.size(), 4u);
  EXPECT_EQ(counters.components_dirty - before.components_dirty, 1u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(solver.component_of_slot(s), delta.fresh_components[0]);
  }

  const std::vector<double> ref = MaxMinFairRates(
      {{0, 1}, {2, 3}, {4, 5}, {1, 3, 5}}, capacity);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(rates[s], ref[s]);
}

// Restore-then-churn on the partition: a solver restored from a snapshot
// rebuilds its partition from the incidence lists, and further churn on the
// restored instance must stay bitwise identical to the original instance
// seeing the same churn.
TEST(MaxMinFairSolver, RestoreThenChurnMatchesOriginal) {
  Rng rng(424242);
  const std::size_t num_links = 10;
  std::vector<double> capacity(num_links);
  for (auto& c : capacity) c = rng.uniform(1.0, 500.0);

  MaxMinFairSolver original;
  original.reset_links(capacity);
  std::vector<std::vector<std::size_t>> live_links(32);
  for (std::size_t slot = 0; slot < 32; ++slot) {
    std::vector<std::size_t> links;
    const int degree = rng.uniform_int(1, 3);
    for (int d = 0; d < degree; ++d) {
      const std::size_t l = rng.index(num_links);
      if (std::find(links.begin(), links.end(), l) == links.end()) {
        links.push_back(l);
      }
    }
    original.add_flow(slot, links.data(), links.size());
    live_links[slot] = links;
  }
  std::vector<double> orig_rates;
  SolveCounters counters;
  SolveDelta delta;
  original.solve(orig_rates, delta, &counters);

  // Snapshot the flushed solver and restore into a fresh instance.  Rates
  // live with the caller (the Network serializes them itself), so carry
  // them over by copy, exactly like Network::RestoreFrom does.
  snap::SnapshotWriter w;
  original.SaveTo(w);
  snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
  MaxMinFairSolver restored;
  restored.reset_links(capacity);
  restored.RestoreFrom(r);
  std::vector<double> rest_rates = orig_rates;

  EXPECT_EQ(restored.flow_count(), original.flow_count());
  EXPECT_EQ(restored.live_component_count(), original.live_component_count());

  // Identical churn on both instances: remove some, add some, re-solve.
  SolveDelta rest_delta;
  for (int batch = 0; batch < 4; ++batch) {
    for (std::size_t slot = 0; slot < live_links.size(); ++slot) {
      if (!live_links[slot].empty() && rng.uniform(0.0, 1.0) < 0.25) {
        original.remove_flow(slot);
        restored.remove_flow(slot);
        live_links[slot].clear();
      }
    }
    for (int a = 0; a < 5; ++a) {
      const std::size_t slot = rng.index(live_links.size());
      if (!live_links[slot].empty()) continue;  // only reuse free slots
      std::vector<std::size_t> links;
      const int degree = rng.uniform_int(1, 3);
      for (int d = 0; d < degree; ++d) {
        const std::size_t l = rng.index(num_links);
        if (std::find(links.begin(), links.end(), l) == links.end()) {
          links.push_back(l);
        }
      }
      original.add_flow(slot, links.data(), links.size());
      restored.add_flow(slot, links.data(), links.size());
      live_links[slot] = links;
    }
    original.solve(orig_rates, delta, &counters);
    restored.solve(rest_rates, rest_delta, &counters);
    EXPECT_EQ(restored.live_component_count(),
              original.live_component_count())
        << "batch " << batch;
    for (std::size_t slot = 0; slot < live_links.size(); ++slot) {
      if (live_links[slot].empty()) continue;
      EXPECT_EQ(rest_rates[slot], orig_rates[slot])
          << "batch " << batch << " slot " << slot;
    }
  }
}

// ---------- Network level: randomized churn scenarios -----------------------

struct ScenarioResult {
  std::vector<int> completion_order;       // flow label, callback order
  std::vector<double> completion_times;    // one per completion, same order
  std::vector<double> rate_samples;        // flow_rate probes
  double bytes_delivered = 0.0;
  std::uint64_t events = 0;
  /// Probes with live flows whose rates passed the max-min certificate
  /// (counted only when RunScenario is asked to certify).
  int certified_probes = 0;
};

/// Replays one randomized churn scenario (same-timestamp bursts, staggered
/// starts, scheduled cancels, completion-driven restarts).  With `certify`,
/// every probe also checks the max-min certificate over all live flows;
/// that observes rates only, so the outcome is the same either way.
ScenarioResult RunScenario(std::uint64_t seed, bool certify = false) {
  Rng rng(seed);
  const std::size_t nodes = static_cast<std::size_t>(rng.uniform_int(4, 12));
  NetworkConfig config;
  config.num_nodes = nodes;
  config.uplink_bps = rng.uniform(50.0, 400.0);
  config.downlink_bps = rng.uniform(100.0, 800.0);
  config.core_bps = rng.uniform(0.0, 1.0) < 0.3
                        ? rng.uniform(100.0, 1000.0)
                        : 0.0;

  sim::Simulator sim;
  Network net(sim, config);
  ScenarioResult out;
  std::vector<FlowId> started;
  // Every flow with its links (chained restarts included), for the
  // certificate; `started` alone drives the probes and cancels.
  struct Started {
    FlowId id;
    std::vector<std::size_t> links;
  };
  std::vector<Started> all_flows;
  const auto links_of = [&config](NodeId src, NodeId dst) {
    std::vector<std::size_t> links = {src.value(),
                                      config.num_nodes + dst.value()};
    if (config.core_bps > 0.0) links.push_back(2 * config.num_nodes);
    return links;
  };
  std::vector<double> capacity(2 * nodes, config.uplink_bps);
  std::fill(capacity.begin() + static_cast<std::ptrdiff_t>(nodes),
            capacity.end(), config.downlink_bps);
  if (config.core_bps > 0.0) capacity.push_back(config.core_bps);

  auto pick_pair = [&rng, nodes](NodeId& src, NodeId& dst) {
    const auto s = static_cast<NodeId::value_type>(rng.index(nodes));
    auto d = static_cast<NodeId::value_type>(rng.index(nodes));
    if (d == s) d = static_cast<NodeId::value_type>((d + 1) % nodes);
    src = NodeId(s);
    dst = NodeId(d);
  };

  int label = 0;
  const int bursts = rng.uniform_int(3, 8);
  double t = 0.0;
  for (int b = 0; b < bursts; ++b) {
    t += rng.uniform(0.0, 5.0);  // occasionally zero: coincident bursts
    const int burst_flows = rng.uniform_int(1, 6);
    for (int f = 0; f < burst_flows; ++f) {
      const int this_label = label++;
      const double bytes = rng.uniform(100.0, 5000.0);
      const bool chain = rng.uniform(0.0, 1.0) < 0.25;
      sim.schedule_at(t, [&, this_label, bytes, chain] {
        NodeId src, dst;
        pick_pair(src, dst);
        const int chained_label = chain ? 10000 + this_label : -1;
        started.push_back(net.start_flow(src, dst, bytes, [&, this_label,
                                                           chained_label] {
          out.completion_order.push_back(this_label);
          out.completion_times.push_back(sim.now());
          if (chained_label >= 0) {
            // Restart from inside the completion callback (re-entrancy).
            NodeId s2, d2;
            pick_pair(s2, d2);
            const FlowId chained =
                net.start_flow(s2, d2, 250.0, [&, chained_label] {
                  out.completion_order.push_back(chained_label);
                  out.completion_times.push_back(sim.now());
                });
            all_flows.push_back({chained, links_of(s2, d2)});
          }
        }));
        all_flows.push_back({started.back(), links_of(src, dst)});
      });
    }
    // Probe rates mid-run (forces a flush of the pending solve) and
    // cancel a random earlier flow.
    const double probe_t = t + rng.uniform(0.1, 3.0);
    const std::size_t cancel_ix = rng.index(64);
    sim.schedule_at(probe_t, [&, cancel_ix] {
      if (certify) {
        std::vector<std::vector<std::size_t>> live_links;
        std::vector<double> live_rates;
        for (const Started& f : all_flows) {
          if (!net.flow_active(f.id)) continue;
          live_links.push_back(f.links);
          live_rates.push_back(net.flow_rate(f.id));
        }
        if (!live_links.empty()) {
          EXPECT_TRUE(IsMaxMinFair(live_links, capacity, live_rates))
              << "seed " << seed << " probe at t=" << sim.now();
          ++out.certified_probes;
        }
      }
      for (const FlowId id : started) {
        out.rate_samples.push_back(net.flow_rate(id));
      }
      if (!started.empty()) {
        net.cancel_flow(started[cancel_ix % started.size()]);
      }
    });
  }
  sim.run();
  out.bytes_delivered = net.bytes_delivered();
  out.events = sim.events_processed();
  return out;
}

// Batching must actually batch: strictly fewer solves run than were
// requested whenever bursts exist.
TEST(NetworkEquivalence, IncrementalPathBatchesRecomputes) {
  sim::Simulator sim;
  NetworkConfig config;
  config.num_nodes = 8;
  config.uplink_bps = 100.0;
  config.downlink_bps = 200.0;
  Network net(sim, config);
  sim.schedule_at(1.0, [&] {
    for (int i = 0; i < 7; ++i) {
      net.start_flow(NodeId(0), NodeId(static_cast<NodeId::value_type>(i + 1)),
                     700.0, [] {});
    }
  });
  sim.run();
  const NetStats& s = net.stats();
  EXPECT_GT(s.recomputes_requested, s.recomputes_run);
  EXPECT_EQ(s.recomputes_batched(), s.recomputes_requested - s.recomputes_run);
  EXPECT_GT(s.wall_seconds, 0.0);
}

// ---------- golden digests --------------------------------------------------

/// FNV-1a over a scenario's outcome: completion order and times, every rate
/// sample, bytes delivered and the processed-event count.
std::uint64_t ScenarioDigest(const ScenarioResult& r) {
  std::vector<std::uint8_t> bytes;
  const auto u64 = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto f64 = [&u64](double v) {
    std::uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof raw);
    u64(raw);
  };
  u64(r.completion_order.size());
  for (const int label : r.completion_order) {
    u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(label)));
  }
  u64(r.completion_times.size());
  for (const double t : r.completion_times) f64(t);
  u64(r.rate_samples.size());
  for (const double rate : r.rate_samples) f64(rate);
  f64(r.bytes_delivered);
  u64(r.events);
  return snap::Fnv1a(bytes.data(), bytes.size());
}

// Scenario seeds 1..48, recorded while the reference, global and
// partitioned rate paths still ran side by side and agreed bit for bit
// (events included).
// clang-format off
constexpr std::uint64_t kScenarioDigests[48] = {
    0x1d739050d6414f8dULL, 0xa6a3a47fe847027fULL, 0x9fb5b149998719beULL,
    0xd31b17e56e157e3eULL, 0xe0b8b25562a9bad7ULL, 0xa63b4a6b47ae329aULL,
    0x29ddb0712dc85948ULL, 0x5761376bbbdaf429ULL, 0x628fe449d68e98c5ULL,
    0xe01ea24c1e60e42cULL, 0xb6ffff6e20095263ULL, 0xa28769234daf34b8ULL,
    0x7a733b6c0e83471aULL, 0x51643784b8d4f6cbULL, 0x5c88dca5b1d09049ULL,
    0xd19844c361d27f62ULL, 0x5302ab7bd9dd8c9cULL, 0xc55b1f467785d35cULL,
    0xb3434669127c7913ULL, 0x1282540fd5e5ccacULL, 0x68a37893e3e9bafbULL,
    0xb3d3234dd2ed3b4fULL, 0xfa280b79d5b42dacULL, 0xe147bb67fcb92ad8ULL,
    0xd9d4aa7763ad4d6cULL, 0xf325c96cb515071dULL, 0xc017130fc1f04a90ULL,
    0x3c471528141e451bULL, 0xa94e5a45c9b43dc6ULL, 0x464daef39892d8efULL,
    0xa128b48b23d3a415ULL, 0x1fcb61390b44aa4aULL, 0x837b5b0878bedb94ULL,
    0xf39bf414300394b9ULL, 0xf28a38af6af4944eULL, 0x59e1fb1c698b03d2ULL,
    0xc0705a9f33c20728ULL, 0xbeec214c83e70b5bULL, 0x86f8b4d3589cd64eULL,
    0x76b004cf4ef1b6a8ULL, 0xd52588dbd77d4242ULL, 0xc7ae4abc02eed94cULL,
    0xf69a4137557b5207ULL, 0xdf7dd0b0a19a13d6ULL, 0x5da0022ec39d3b26ULL,
    0x97cdf9eb4cd2e660ULL, 0x792757917a32004eULL, 0xa6e16d74a9370ea6ULL,
};
// clang-format on

TEST(NetworkGolden, ChurnScenariosMatchPinnedDigests) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const std::uint64_t actual = ScenarioDigest(RunScenario(seed));
    EXPECT_EQ(actual, kScenarioDigests[seed - 1])
        << "seed " << seed << ": actual " << workload::Hex(actual);
  }
}

// The same 48 scenarios, certified at every probe.  Certifying observes
// rates only, so the outcome still matches its digest.
TEST(NetworkGolden, ChurnScenarioProbesPassMaxMinCertificate) {
  int certified = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const ScenarioResult result = RunScenario(seed, /*certify=*/true);
    EXPECT_EQ(ScenarioDigest(result), kScenarioDigests[seed - 1])
        << "seed " << seed;
    certified += result.certified_probes;
  }
  EXPECT_GE(certified, 250);  // 258 of the 263 probes see live flows
}

/// One experiment's outcome on a Sort workload at `num_nodes`, the shape
/// both experiment-level pins below use.
workload::ExperimentConfig SortConfig(std::size_t num_nodes, int apps,
                                      int jobs_per_app, int files_per_kind,
                                      std::uint64_t seed) {
  workload::ExperimentConfig config;
  config.num_nodes = num_nodes;
  config.kinds = {workload::WorkloadKind::kSort};  // shuffle-heavy
  config.trace.num_apps = apps;
  config.trace.jobs_per_app = jobs_per_app;
  config.trace.files_per_kind = files_per_kind;
  config.seed = seed;
  return config;
}

// The 12-node Sort run (apps, shuffle fan-out, DFS reads, manager rounds),
// pinned while the reference rate path still reproduced it exactly.
TEST(NetworkGolden, SortExperimentMatchesPinnedDigest) {
  const workload::ExperimentResult result =
      workload::RunExperiment(SortConfig(12, 3, 3, 4, 1234));
  const std::uint64_t actual = workload::OutcomeDigest(result);
  EXPECT_EQ(actual, 0x2519712729a8dccfULL) << "actual " << workload::Hex(actual);
  // Same-timestamp batching folds flow-set changes into fewer solves.
  EXPECT_LT(result.net_stats.recomputes_run,
            result.net_stats.recomputes_requested);
  EXPECT_GT(result.net_stats.recomputes_batched, 0u);
}

// 20 seeds x four fabrics x all four managers, one constant per (fabric,
// manager) pair: FNV-1a over the 20 outcome digests in seed order.  On the
// paper's 40/2 Gbps fabric no downlink can bind at 10 nodes; the three
// tight fabrics make downlinks and/or the core start and stop binding as
// flows come and go, so links enter and leave the partition.  Recorded
// while the global solve still reproduced every run exactly.
TEST(NetworkGolden, FabricsAndManagersMatchPinnedDigests) {
  using custody::cluster::ManagerKind;
  struct Fabric {
    double downlink_gbps;
    double core_gbps;  // 0 = non-blocking
  };
  const Fabric kFabrics[] = {{40.0, 0.0}, {4.0, 0.0}, {40.0, 6.0}, {6.0, 9.0}};
  const ManagerKind kManagers[] = {ManagerKind::kStandalone,
                                   ManagerKind::kCustody, ManagerKind::kOffer,
                                   ManagerKind::kPool};
  // clang-format off
  const std::map<std::string, std::uint64_t> kPinned = {
      {"40/0/standalone", 0xf156760f52d3ca98ULL},
      {"40/0/custody", 0xdfb3da2bb747886cULL},
      {"40/0/offer", 0x370eb9fd655ced65ULL},
      {"40/0/pool", 0x5a8bcb77b37be352ULL},
      {"4/0/standalone", 0xf557b0499984653aULL},
      {"4/0/custody", 0x9c539a61aa76c909ULL},
      {"4/0/offer", 0x4e8c9cf84cc77f57ULL},
      {"4/0/pool", 0x7f0927640d9de56bULL},
      {"40/6/standalone", 0x0826d015171f17d9ULL},
      {"40/6/custody", 0x5bf98c5b89fb99d9ULL},
      {"40/6/offer", 0x8674c951d13d8721ULL},
      {"40/6/pool", 0xb5048d8d68cc8053ULL},
      {"6/9/standalone", 0xb6230be63aab71c5ULL},
      {"6/9/custody", 0xf2a5b13ea3fa3541ULL},
      {"6/9/offer", 0x9cc36375ca81bee5ULL},
      {"6/9/pool", 0xed6fb321218bab09ULL},
  };
  // clang-format on
  for (const Fabric fabric : kFabrics) {
    for (const ManagerKind manager : kManagers) {
      std::vector<std::uint8_t> chain;
      for (std::uint64_t seed = 5001; seed <= 5020; ++seed) {
        workload::ExperimentConfig config = SortConfig(10, 2, 2, 3, seed);
        config.manager = manager;
        config.downlink_gbps = fabric.downlink_gbps;
        config.core_gbps = fabric.core_gbps;
        const workload::ExperimentResult result =
            workload::RunExperiment(config);
        EXPECT_GT(result.net_stats.components_total, 0u)
            << "seed " << seed;
        const std::uint64_t digest = workload::OutcomeDigest(result);
        for (int i = 0; i < 8; ++i) {
          chain.push_back(static_cast<std::uint8_t>(digest >> (8 * i)));
        }
      }
      const std::string name =
          std::to_string(static_cast<int>(fabric.downlink_gbps)) + "/" +
          std::to_string(static_cast<int>(fabric.core_gbps)) + "/" +
          workload::ManagerName(manager);
      const std::uint64_t actual = snap::Fnv1a(chain.data(), chain.size());
      const auto it = kPinned.find(name);
      EXPECT_TRUE(it != kPinned.end() && it->second == actual)
          << "{\"" << name << "\", " << workload::Hex(actual) << "},";
    }
  }
}

}  // namespace
}  // namespace custody::net
