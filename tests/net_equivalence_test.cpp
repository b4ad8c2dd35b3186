// Equivalence proof for the two network rate paths.
//
// The incremental solver (batched recomputes + persistent incidence +
// heap-based progressive filling) must be *bit-identical* to the reference
// recompute-per-change scan: same rates, same completion order, same
// completion times, same bytes delivered.  These suites drive both paths
// through randomized churn — at the solver level, the Network level and the
// full-experiment level — and compare with exact double equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/manager_factory.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/units.h"
#include "net/maxmin.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/experiment.h"

namespace custody::net {
namespace {

using custody::NodeId;
using custody::Rng;

// ---------- solver vs. reference, direct -----------------------------------

// Random link sets and flow churn (interleaved adds and removes with slot
// reuse); after every mutation batch the persistent solver's rates must be
// bitwise equal to a from-scratch reference pass over the same live set.
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
        const int degree = rng.uniform_int(0, 3);
        for (int d = 0; d < degree; ++d) {
          const std::size_t l = rng.index(num_links);
          if (std::find(links.begin(), links.end(), l) == links.end()) {
            links.push_back(l);
          }
        }
        solver.add_flow(slot, links.data(), links.size());
        live.push_back({slot, links});
      }

      solver.solve(rates);

      // Reference over the same live set.  Flow order is irrelevant to the
      // result (the per-link subtractions commute bitwise), but use add
      // order anyway, mirroring the Network's insertion-order walk.
      std::vector<std::vector<std::size_t>> ref_links;
      ref_links.reserve(live.size());
      for (const auto& f : live) ref_links.push_back(f.links);
      const std::vector<double> ref = MaxMinFairRates(ref_links, capacity);

      ASSERT_EQ(ref.size(), live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const double got = rates[live[i].slot];
        const double want = ref[i];
        if (std::isinf(want)) {
          EXPECT_TRUE(std::isinf(got)) << "seed " << seed << " batch " << batch;
        } else {
          EXPECT_EQ(got, want)  // bitwise: no tolerance
              << "seed " << seed << " batch " << batch << " flow " << i;
        }
      }
    }
  }
}

// Counters must reflect the asymptotic win.  Both paths pay O(L) once per
// solve, but the reference additionally rescans every flow and every link
// per bottleneck round; the heap path only touches entries incident to the
// round's bottleneck.  With F flows on F *distinct* bottlenecks (worst case
// for the scan: F rounds) the reference does ~F x (F + 2L) work while the
// heap path stays ~O(F + L).
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
  SolveCounters inc;
  solver.solve(rates, &inc);
  SolveCounters ref;
  const auto ref_rates = MaxMinFairRates(flow_links, capacity, &ref);
  for (std::size_t f = 0; f < n; ++f) EXPECT_EQ(rates[f], ref_rates[f]);

  // Every flow is its own bottleneck: F rounds on both paths.
  EXPECT_EQ(ref.rounds, n);
  EXPECT_EQ(inc.rounds, n);
  // Reference: per-round full rescans.  Heap: one init pass + one pop per
  // round, no rescans — over an order of magnitude fewer link inspections.
  EXPECT_EQ(ref.links_scanned, ref.rounds * 2 * n);
  EXPECT_EQ(ref.flows_scanned, ref.rounds * n);
  EXPECT_LE(inc.links_scanned, 2 * n + 2 * inc.rounds);
  EXPECT_EQ(inc.flows_scanned, n);
  EXPECT_LT(inc.links_scanned * 10, ref.links_scanned);
}

// ---------- solver vs. reference, partitioned -------------------------------

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

// The partitioned solver under the same randomized churn: rates must stay
// bitwise equal to the from-scratch reference, AND the SolveDelta must be
// complete — a shadow rate table updated *only* from reported deltas has to
// agree with the reference too, which catches both a changed-but-unreported
// slot (stale shadow) and a clean component being needlessly re-solved
// (checked via the dirty counter).
TEST(MaxMinFairSolver, PartitionedBitIdenticalWithCompleteDeltas) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 104729);
    const std::size_t num_links =
        static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<double> capacity(num_links);
    for (auto& c : capacity) c = rng.uniform(1.0, 1000.0);

    MaxMinFairSolver solver;
    solver.reset_links(capacity, /*partitioned=*/true);

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
        const int degree = rng.uniform_int(0, 3);
        for (int d = 0; d < degree; ++d) {
          const std::size_t l = rng.index(num_links);
          if (std::find(links.begin(), links.end(), l) == links.end()) {
            links.push_back(l);
          }
        }
        solver.add_flow(slot, links.data(), links.size());
        live.push_back({slot, links});
      }

      solver.solve(rates, &counters, &delta);

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
      for (const std::uint32_t slot : delta.unconstrained_slots) {
        shadow[slot] = rates[slot];
      }

      std::vector<std::vector<std::size_t>> ref_links;
      ref_links.reserve(live.size());
      for (const auto& f : live) ref_links.push_back(f.links);
      const std::vector<double> ref = MaxMinFairRates(ref_links, capacity);

      ASSERT_EQ(ref.size(), live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t slot = live[i].slot;
        EXPECT_EQ(rates[slot], ref[i])
            << "seed " << seed << " batch " << batch << " flow " << i;
        EXPECT_EQ(shadow[slot], ref[i])
            << "delta missed a changed slot: seed " << seed << " batch "
            << batch << " flow " << i;
        // Zero-degree flows own no links and no component.
        EXPECT_EQ(solver.component_of_slot(slot) == MaxMinFairSolver::kNoComponent,
                  live[i].links.empty())
            << "seed " << seed << " batch " << batch << " flow " << i;
      }
      // The partition couples flows only through links that can bind: it
      // must match an oracle recomputed from the live list.
      const OraclePartition oracle = PartitionOracle(ref_links, capacity);
      EXPECT_EQ(solver.live_component_count(), oracle.classes)
          << "seed " << seed << " batch " << batch;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].links.empty()) continue;
        for (std::size_t j = 0; j < live.size(); ++j) {
          if (live[j].links.empty()) continue;
          EXPECT_EQ(solver.component_of_slot(live[i].slot) ==
                        solver.component_of_slot(live[j].slot),
                    oracle.flow_class[i] == oracle.flow_class[j])
              << "seed " << seed << " batch " << batch << " flows " << i
              << ", " << j;
        }
      }
    }
    // Across the run, at least as many components existed as were dirty.
    EXPECT_GE(counters.components_total, counters.components_dirty);
  }
}

// One 40 Gbps downlink fed by distinct 2 Gbps uplinks cannot bind below 20
// flows (19 x 2 < 40), so each flow is its own component; the 20th flow makes
// it bind and couples them all, and removing one splits them again.  Every
// step matches the reference bitwise, and a snapshot taken after any step
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
  original.solver.reset_links(capacity, /*partitioned=*/true);
  std::vector<Twin> restored;  // one per earlier step
  SolveDelta delta;
  for (std::size_t step = 0; step < steps.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<Twin*> instances = {&original};
    for (Twin& twin : restored) instances.push_back(&twin);
    for (Twin* twin : instances) {
      for (const auto& change : steps[step].changes) change(twin->solver);
      twin->solver.solve(twin->rates, nullptr, &delta);
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
    restored.back().solver.reset_links(capacity, /*partitioned=*/true);
    restored.back().solver.RestoreFrom(r);
    restored.back().rates = original.rates;
    EXPECT_EQ(restored.back().solver.live_component_count(),
              steps[step].components);
  }
}

// A zero-capacity link freezes its flows at rate 0 on both paths; the link
// is still connectivity (it can merge components) even though it carries no
// bandwidth.
TEST(MaxMinFairSolver, ZeroCapacityLinkBitIdentical) {
  const std::vector<double> capacity = {0.0, 100.0, 50.0};
  MaxMinFairSolver solver;
  solver.reset_links(capacity, /*partitioned=*/true);
  const std::size_t f0[2] = {0, 1};  // through the dead link
  const std::size_t f1[2] = {1, 2};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, &counters, &delta);

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
  solver.reset_links(capacity, /*partitioned=*/true);
  const std::size_t f0[2] = {0, 1};
  const std::size_t f1[2] = {2, 3};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, &counters, &delta);
  EXPECT_EQ(solver.live_component_count(), 2u);

  // Retire flow 0; its component (links 0, 1) dissolves at the next solve.
  solver.remove_flow(0);
  solver.solve(rates, &counters, &delta);
  EXPECT_EQ(solver.live_component_count(), 1u);

  // Reuse slot 0 with different links: one unowned (1), one owned (2).
  const std::size_t reused[2] = {1, 2};
  solver.add_flow(0, reused, 2);
  solver.solve(rates, &counters, &delta);
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
  solver.reset_links(capacity, /*partitioned=*/true);
  const std::size_t f0[2] = {0, 1};
  const std::size_t f1[2] = {2, 3};
  const std::size_t f2[2] = {4, 5};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  solver.add_flow(2, f2, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, &counters, &delta);
  EXPECT_EQ(solver.live_component_count(), 3u);
  EXPECT_EQ(delta.fresh_components.size(), 3u);

  const std::size_t bridge[3] = {1, 3, 5};  // one link from each component
  solver.add_flow(3, bridge, 3);
  const SolveCounters before = counters;
  solver.solve(rates, &counters, &delta);
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
  original.reset_links(capacity, /*partitioned=*/true);
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
  original.solve(orig_rates, &counters, &delta);

  // Snapshot the flushed solver and restore into a fresh instance.  Rates
  // live with the caller (the Network serializes them itself), so carry
  // them over by copy, exactly like Network::RestoreFrom does.
  snap::SnapshotWriter w;
  original.SaveTo(w);
  snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
  MaxMinFairSolver restored;
  restored.reset_links(capacity, /*partitioned=*/true);
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
    original.solve(orig_rates, &counters, &delta);
    restored.solve(rest_rates, &counters, &rest_delta);
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
};

/// Replays one randomized churn scenario (same-timestamp bursts, staggered
/// starts, scheduled cancels, completion-driven restarts) on either path.
ScenarioResult RunScenario(std::uint64_t seed, bool incremental,
                           bool partitioned) {
  Rng rng(seed);
  const std::size_t nodes = static_cast<std::size_t>(rng.uniform_int(4, 12));
  NetworkConfig config;
  config.num_nodes = nodes;
  config.uplink_bps = rng.uniform(50.0, 400.0);
  config.downlink_bps = rng.uniform(100.0, 800.0);
  config.core_bps = rng.uniform(0.0, 1.0) < 0.3
                        ? rng.uniform(100.0, 1000.0)
                        : 0.0;
  config.incremental = incremental;
  config.component_partitioned = partitioned;

  sim::Simulator sim;
  Network net(sim, config);
  ScenarioResult out;
  std::vector<FlowId> started;

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
            net.start_flow(s2, d2, 250.0, [&, chained_label] {
              out.completion_order.push_back(chained_label);
              out.completion_times.push_back(sim.now());
            });
          }
        }));
      });
    }
    // Probe rates mid-run (forces a flush on the incremental path) and
    // cancel a random earlier flow.
    const double probe_t = t + rng.uniform(0.1, 3.0);
    const std::size_t cancel_ix = rng.index(64);
    sim.schedule_at(probe_t, [&, cancel_ix] {
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

// The acceptance property: >= 40 seeds of random flow churn, identical
// rates, completion order, completion times and bytes_delivered — exact
// double equality, no tolerance.
TEST(NetworkEquivalence, IncrementalMatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const ScenarioResult inc = RunScenario(seed, true, true);
    const ScenarioResult ref = RunScenario(seed, false, false);
    ASSERT_EQ(inc.completion_order, ref.completion_order) << "seed " << seed;
    ASSERT_EQ(inc.completion_times.size(), ref.completion_times.size());
    for (std::size_t i = 0; i < inc.completion_times.size(); ++i) {
      EXPECT_EQ(inc.completion_times[i], ref.completion_times[i])
          << "seed " << seed << " completion " << i;
    }
    ASSERT_EQ(inc.rate_samples.size(), ref.rate_samples.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < inc.rate_samples.size(); ++i) {
      EXPECT_EQ(inc.rate_samples[i], ref.rate_samples[i])
          << "seed " << seed << " sample " << i;
    }
    EXPECT_EQ(inc.bytes_delivered, ref.bytes_delivered) << "seed " << seed;
  }
}

// Partitioned vs. unpartitioned on the *same* incremental path: identical
// batching means the entire event stream must match, so this comparison
// includes the processed-event count on top of the usual figures.
TEST(NetworkEquivalence, PartitionToggleInvariantAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const ScenarioResult part = RunScenario(seed, true, true);
    const ScenarioResult flat = RunScenario(seed, true, false);
    ASSERT_EQ(part.completion_order, flat.completion_order) << "seed " << seed;
    ASSERT_EQ(part.completion_times.size(), flat.completion_times.size());
    for (std::size_t i = 0; i < part.completion_times.size(); ++i) {
      EXPECT_EQ(part.completion_times[i], flat.completion_times[i])
          << "seed " << seed << " completion " << i;
    }
    ASSERT_EQ(part.rate_samples.size(), flat.rate_samples.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < part.rate_samples.size(); ++i) {
      EXPECT_EQ(part.rate_samples[i], flat.rate_samples[i])
          << "seed " << seed << " sample " << i;
    }
    EXPECT_EQ(part.bytes_delivered, flat.bytes_delivered) << "seed " << seed;
    EXPECT_EQ(part.events, flat.events) << "seed " << seed;
  }
}

// Batching must actually batch: on the incremental path strictly fewer
// solves run than were requested whenever bursts exist.
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

// ---------- experiment level ------------------------------------------------

// A full experiment (apps, shuffle fan-out, DFS reads, manager rounds) must
// report identical figures on both rate paths.
TEST(NetworkEquivalence, ExperimentResultsIdenticalAcrossRatePaths) {
  namespace wl = custody::workload;
  wl::ExperimentConfig config;
  config.num_nodes = 12;
  config.kinds = {wl::WorkloadKind::kSort};  // shuffle-heavy: network matters
  config.trace.num_apps = 3;
  config.trace.jobs_per_app = 3;
  config.trace.files_per_kind = 4;
  config.seed = 1234;

  config.incremental_network = true;
  const wl::ExperimentResult inc = wl::RunExperiment(config);
  config.incremental_network = false;
  config.component_partitioned_network = false;
  const wl::ExperimentResult ref = wl::RunExperiment(config);

  EXPECT_EQ(inc.makespan, ref.makespan);
  EXPECT_EQ(inc.jobs_completed, ref.jobs_completed);
  EXPECT_EQ(inc.jct.mean, ref.jct.mean);
  EXPECT_EQ(inc.jct.stddev, ref.jct.stddev);
  EXPECT_EQ(inc.input_stage.mean, ref.input_stage.mean);
  EXPECT_EQ(inc.net_bytes_delivered, ref.net_bytes_delivered);
  EXPECT_EQ(inc.overall_task_locality_percent,
            ref.overall_task_locality_percent);
  // Same flow-set changes on both paths; only the executed-solve count may
  // differ (batching).
  EXPECT_EQ(inc.net_stats.recomputes_requested,
            ref.net_stats.recomputes_requested);
  EXPECT_LT(inc.net_stats.recomputes_run, ref.net_stats.recomputes_run);
  EXPECT_EQ(ref.net_stats.recomputes_batched, 0u);
  EXPECT_GT(inc.net_stats.recomputes_batched, 0u);
}

// The acceptance sweep for the component partition: 20 seeds x all four
// managers x four fabrics, component_partitioned on vs. off, exact double
// compare on every reported figure INCLUDING events_processed (same
// batching + same completion times => the simulators walk identical event
// sequences).  On the paper's 40/2 Gbps fabric no downlink can bind at 10
// nodes; the three tight fabrics make downlinks and/or the core start and
// stop binding as flows come and go, so links enter and leave the partition.
TEST(NetworkEquivalence, PartitionToggleInvariantAcrossManagersAndSeeds) {
  namespace wl = custody::workload;
  using custody::cluster::ManagerKind;
  const ManagerKind kManagers[] = {ManagerKind::kStandalone,
                                   ManagerKind::kCustody, ManagerKind::kOffer,
                                   ManagerKind::kPool};
  struct Fabric {
    double downlink_gbps;
    double core_gbps;  // 0 = non-blocking
  };
  const Fabric kFabrics[] = {{40.0, 0.0}, {4.0, 0.0}, {40.0, 6.0}, {6.0, 9.0}};
  for (const Fabric fabric : kFabrics) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      for (const ManagerKind manager : kManagers) {
        wl::ExperimentConfig config;
        config.num_nodes = 10;
        config.manager = manager;
        config.kinds = {wl::WorkloadKind::kSort};  // shuffle-heavy
        config.trace.num_apps = 2;
        config.trace.jobs_per_app = 2;
        config.trace.files_per_kind = 3;
        config.downlink_gbps = fabric.downlink_gbps;
        config.core_gbps = fabric.core_gbps;
        config.seed = 5000 + seed;

        config.component_partitioned_network = true;
        const wl::ExperimentResult part = wl::RunExperiment(config);
        config.component_partitioned_network = false;
        const wl::ExperimentResult flat = wl::RunExperiment(config);

        const std::string at = "seed " + std::to_string(config.seed) +
                               " manager " + part.manager_name + " fabric " +
                               std::to_string(fabric.downlink_gbps) + "/" +
                               std::to_string(fabric.core_gbps);
        EXPECT_EQ(part.makespan, flat.makespan) << at;
        EXPECT_EQ(part.jobs_completed, flat.jobs_completed) << at;
        EXPECT_EQ(part.jct.mean, flat.jct.mean) << at;
        EXPECT_EQ(part.jct.stddev, flat.jct.stddev) << at;
        EXPECT_EQ(part.net_bytes_delivered, flat.net_bytes_delivered) << at;
        EXPECT_EQ(part.events_processed, flat.events_processed) << at;
        // Identical flow churn and identical batching on both sides; only the
        // per-solve work differs.
        EXPECT_EQ(part.net_stats.recomputes_requested,
                  flat.net_stats.recomputes_requested)
            << at;
        EXPECT_EQ(part.net_stats.recomputes_run, flat.net_stats.recomputes_run)
            << at;
        // The partitioned side must actually report partition work, and must
        // rewrite no more rates than the full-rewrite path.
        EXPECT_GT(part.net_stats.components_total, 0u) << at;
        EXPECT_EQ(flat.net_stats.components_total, 0u) << at;
        EXPECT_LE(part.net_stats.rates_changed, flat.net_stats.rates_changed)
            << at;
      }
    }
  }
}

}  // namespace
}  // namespace custody::net
