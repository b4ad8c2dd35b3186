// Tests for the fluid network: max-min fairness properties, completion
// timing, contention, cancellation, and the core-bottleneck option.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace custody::net {
namespace {

using custody::NodeId;
using custody::units::Gbps;
using custody::units::MB;

NetworkConfig SmallConfig(std::size_t nodes = 4) {
  NetworkConfig c;
  c.num_nodes = nodes;
  c.uplink_bps = 100.0;    // small round numbers for exact math
  c.downlink_bps = 200.0;
  return c;
}

// ---------- MaxMinFairRates (pure) ----------------------------------------

TEST(MaxMinFairRates, SingleFlowGetsBottleneck) {
  const auto rates = MaxMinFairRates({{0, 1}}, {100.0, 200.0});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(MaxMinFairRates, EqualShareOnSharedLink) {
  // Two flows share link 0 (cap 100); each also uses a private link.
  const auto rates = MaxMinFairRates({{0, 1}, {0, 2}}, {100.0, 500.0, 500.0});
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(MaxMinFairRates, WaterFillingUnlocksLeftover) {
  // Flow 0 is pinned to 10 by its private link; flow 1 then gets the rest
  // of the shared link (100 - 10 = 90).
  const auto rates = MaxMinFairRates({{0, 1}, {1}}, {10.0, 100.0});
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 90.0);
}

TEST(MaxMinFairRates, EmptyInput) {
  EXPECT_TRUE(MaxMinFairRates({}, {100.0}).empty());
}

// Regression: a flow with an empty link list was never frozen by any
// bottleneck, so `remaining` never reached 0 — in Release builds (assert
// compiled out) the solver spun forever.  Such a flow is unconstrained
// and must get unbounded rate without disturbing the others.
TEST(MaxMinFairRates, EmptyLinkListGetsUnboundedRate) {
  const auto rates = MaxMinFairRates({{}, {0}}, {100.0});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_TRUE(std::isinf(rates[0]));
  EXPECT_GT(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
}

TEST(MaxMinFairRates, AllFlowsLinklessTerminates) {
  const auto rates = MaxMinFairRates({{}, {}, {}}, {50.0});
  ASSERT_EQ(rates.size(), 3u);
  for (double r : rates) EXPECT_TRUE(std::isinf(r));
}

// Property: no link over capacity, and allocation is max-min (no flow can
// grow without shrinking a flow of smaller-or-equal rate).
TEST(MaxMinFairRates, PropertyFeasibleAndMaxMin) {
  custody::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int num_links = rng.uniform_int(2, 8);
    std::vector<double> capacity(num_links);
    for (auto& c : capacity) c = rng.uniform(10.0, 100.0);
    const int num_flows = rng.uniform_int(1, 12);
    std::vector<std::vector<std::size_t>> flow_links(num_flows);
    for (auto& links : flow_links) {
      const int degree = rng.uniform_int(1, 2);
      for (int d = 0; d < degree; ++d) {
        const std::size_t l = rng.index(num_links);
        if (std::find(links.begin(), links.end(), l) == links.end()) {
          links.push_back(l);
        }
      }
    }
    const auto rates = MaxMinFairRates(flow_links, capacity);

    // Feasibility: per-link load <= capacity (small epsilon).
    std::vector<double> load(num_links, 0.0);
    for (int f = 0; f < num_flows; ++f) {
      for (std::size_t l : flow_links[f]) load[l] += rates[f];
    }
    for (int l = 0; l < num_links; ++l) {
      EXPECT_LE(load[l], capacity[l] + 1e-6);
    }

    // Max-min: every flow is bottlenecked by a saturated link on which it
    // has the maximal rate.
    for (int f = 0; f < num_flows; ++f) {
      bool has_bottleneck = false;
      for (std::size_t l : flow_links[f]) {
        if (load[l] < capacity[l] - 1e-6) continue;  // not saturated
        bool is_max_on_link = true;
        for (int g = 0; g < num_flows; ++g) {
          if (g == f) continue;
          const auto& gl = flow_links[g];
          if (std::find(gl.begin(), gl.end(), l) != gl.end() &&
              rates[g] > rates[f] + 1e-6) {
            is_max_on_link = false;
            break;
          }
        }
        if (is_max_on_link) {
          has_bottleneck = true;
          break;
        }
      }
      EXPECT_TRUE(has_bottleneck) << "flow " << f << " lacks a bottleneck";
    }
  }
}

// ---------- Network (simulated) --------------------------------------------

TEST(Network, SingleTransferTime) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double done_at = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  // Bottleneck is the 100 B/s uplink: 1000 bytes -> 10 seconds.
  EXPECT_NEAR(done_at, 10.0, 1e-9);
  EXPECT_NEAR(net.bytes_delivered(), 1000.0, 1e-6);
}

TEST(Network, TwoFlowsShareUplink) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double t1 = -1.0;
  double t2 = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 1000.0, [&] { t1 = sim.now(); });
  net.start_flow(NodeId(0), NodeId(2), 1000.0, [&] { t2 = sim.now(); });
  sim.run();
  // Each flow gets 50 B/s while both are active: both finish at t = 20.
  EXPECT_NEAR(t1, 20.0, 1e-9);
  EXPECT_NEAR(t2, 20.0, 1e-9);
}

TEST(Network, RateIncreasesWhenCompetitorFinishes) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double t_small = -1.0;
  double t_large = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 500.0, [&] { t_small = sim.now(); });
  net.start_flow(NodeId(0), NodeId(2), 1500.0, [&] { t_large = sim.now(); });
  sim.run();
  // Shared at 50 B/s until the small one finishes at t=10 (500 bytes);
  // the large one then has 1000 bytes left at 100 B/s -> finishes at 20.
  EXPECT_NEAR(t_small, 10.0, 1e-9);
  EXPECT_NEAR(t_large, 20.0, 1e-9);
}

TEST(Network, DownlinkCanBeTheBottleneck) {
  sim::Simulator sim;
  NetworkConfig config = SmallConfig();
  config.downlink_bps = 30.0;  // below the 100 B/s uplink
  Network net(sim, config);
  double t = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 300.0, [&] { t = sim.now(); });
  sim.run();
  EXPECT_NEAR(t, 10.0, 1e-9);
}

TEST(Network, ManyToOneCongestsDownlink) {
  sim::Simulator sim;
  NetworkConfig config = SmallConfig(8);
  config.downlink_bps = 100.0;
  Network net(sim, config);
  int completed = 0;
  double last = 0.0;
  for (int s = 1; s <= 4; ++s) {
    net.start_flow(NodeId(static_cast<NodeId::value_type>(s)), NodeId(0),
                   250.0, [&] {
                     ++completed;
                     last = sim.now();
                   });
  }
  sim.run();
  EXPECT_EQ(completed, 4);
  // 4 x 250 bytes through a 100 B/s downlink: exactly 10 seconds.
  EXPECT_NEAR(last, 10.0, 1e-9);
}

TEST(Network, CoreBottleneckLimitsAggregate) {
  sim::Simulator sim;
  NetworkConfig config = SmallConfig(6);
  config.core_bps = 50.0;  // oversubscribed fabric
  Network net(sim, config);
  double t = -1.0;
  // Disjoint node pairs: without the core each flow would get 100 B/s.
  net.start_flow(NodeId(0), NodeId(1), 250.0, [&] { t = sim.now(); });
  net.start_flow(NodeId(2), NodeId(3), 250.0, [&] { t = sim.now(); });
  sim.run();
  // 25 B/s each through the 50 B/s core -> 10 s.
  EXPECT_NEAR(t, 10.0, 1e-9);
}

TEST(Network, CancelPreventsCompletion) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  bool completed = false;
  const FlowId id =
      net.start_flow(NodeId(0), NodeId(1), 1000.0, [&] { completed = true; });
  sim.schedule(1.0, [&] { net.cancel_flow(id); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_FALSE(net.flow_active(id));
}

TEST(Network, CancelReleasesBandwidth) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double t = -1.0;
  const FlowId victim = net.start_flow(NodeId(0), NodeId(1), 10000.0, [] {});
  net.start_flow(NodeId(0), NodeId(2), 1000.0, [&] { t = sim.now(); });
  sim.schedule(2.0, [&] { net.cancel_flow(victim); });
  sim.run();
  // 2 s at 50 B/s = 100 bytes, then 900 bytes at 100 B/s = 9 s -> t = 11.
  EXPECT_NEAR(t, 11.0, 1e-9);
}

TEST(Network, CompletionCallbackCanStartNewFlow) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double t = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 1000.0, [&] {
    net.start_flow(NodeId(1), NodeId(2), 1000.0, [&] { t = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(t, 20.0, 1e-9);
}

TEST(Network, RejectsInvalidFlows) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  EXPECT_THROW(net.start_flow(NodeId(0), NodeId(0), 10.0, [] {}),
               std::invalid_argument);
  EXPECT_THROW(net.start_flow(NodeId(0), NodeId(1), 0.0, [] {}),
               std::invalid_argument);
}

TEST(Network, FlowIntrospection) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  const FlowId id = net.start_flow(NodeId(0), NodeId(1), 1000.0, [] {});
  EXPECT_DOUBLE_EQ(net.flow_rate(id), 100.0);
  EXPECT_DOUBLE_EQ(net.flow_remaining(id), 1000.0);
  EXPECT_EQ(net.active_flow_count(), 1u);
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_DOUBLE_EQ(net.flow_rate(id), 0.0);
}

TEST(Network, UncontendedTransferTime) {
  sim::Simulator sim;
  NetworkConfig config;
  config.num_nodes = 2;
  config.uplink_bps = Gbps(2.0);
  config.downlink_bps = Gbps(40.0);
  Network net(sim, config);
  EXPECT_NEAR(net.uncontended_transfer_time(MB(128.0)),
              MB(128.0) / Gbps(2.0), 1e-12);
}

// ---------- same-timestamp batching ----------------------------------------

TEST(Network, FanOutInOneEventBatchesToOneRecompute) {
  sim::Simulator sim;
  Network net(sim, SmallConfig(8));
  constexpr int kFlows = 6;
  std::vector<double> done_at(kFlows, -1.0);
  std::vector<double> rates;
  sim.schedule(1.0, [&] {
    std::vector<FlowId> ids;
    for (int i = 0; i < kFlows; ++i) {
      ids.push_back(net.start_flow(NodeId(0),
                                   NodeId(static_cast<NodeId::value_type>(i + 1)),
                                   600.0, [&done_at, &sim, i] {
                                     done_at[static_cast<std::size_t>(i)] =
                                         sim.now();
                                   }));
    }
    // Observing a rate mid-burst flushes the pending recompute: all flows
    // must already see their final (post-burst) fair share.
    for (const FlowId id : ids) rates.push_back(net.flow_rate(id));
  });
  sim.run();
  ASSERT_EQ(rates.size(), static_cast<std::size_t>(kFlows));
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 100.0 / kFlows);
  // 600 bytes at 100/6 B/s -> 36 s, all identical.
  for (double t : done_at) EXPECT_NEAR(t, 37.0, 1e-9);
  // 6 flow starts request 6 recomputes and the single completion event (all
  // flows finish together) requests one more; batching collapses them to
  // exactly one solve per distinct timestamp.
  const NetStats& stats = net.stats();
  EXPECT_EQ(stats.recomputes_requested, 7u);
  EXPECT_EQ(stats.recomputes_run, 2u);
  EXPECT_EQ(stats.recomputes_batched(),
            stats.recomputes_requested - stats.recomputes_run);
  EXPECT_GT(stats.rounds, 0u);
}

TEST(Network, FanOutIdenticalWithAndWithoutBatching) {
  // N flows started in one event (one batched solve) must produce the same
  // completion times, bit for bit, as the same N starts spread over N
  // events at the same timestamp (one solve each).
  auto run = [](bool one_event, std::uint64_t* solves) {
    sim::Simulator sim;
    Network net(sim, SmallConfig(10));
    std::vector<double> done(9, -1.0);
    auto start = [&](int i) {
      net.start_flow(NodeId(0), NodeId(static_cast<NodeId::value_type>(i + 1)),
                     100.0 * (i + 1), [&done, &sim, i] {
                       done[static_cast<std::size_t>(i)] = sim.now();
                     });
    };
    if (one_event) {
      sim.schedule(0.5, [&] {
        for (int i = 0; i < 9; ++i) start(i);
      });
    } else {
      for (int i = 0; i < 9; ++i) sim.schedule(0.5, [&, i] { start(i); });
    }
    sim.run();
    *solves = net.stats().recomputes_run;
    return done;
  };
  std::uint64_t batched_solves = 0;
  std::uint64_t spread_solves = 0;
  const auto batched = run(true, &batched_solves);
  const auto spread = run(false, &spread_solves);
  // Nine flows share the 100 B/s uplink; flow k needs 100 more bytes than
  // flow k-1, so it finishes (10 - k) s after it: 9 s, then 8 s, ...
  double expected = 0.5;
  for (std::size_t i = 0; i < batched.size(); ++i) {
    expected += static_cast<double>(9 - i);
    EXPECT_NEAR(batched[i], expected, 1e-9) << "flow " << i;
    EXPECT_EQ(batched[i], spread[i]) << "flow " << i;  // bit-identical
  }
  EXPECT_EQ(spread_solves, batched_solves + 8);  // 9 start solves, not 1
}

TEST(Network, CancelInsideCompletionCallback) {
  // A completion callback cancelling a sibling flow mid-burst must not
  // disturb the remaining flows.
  sim::Simulator sim;
  Network net(sim, SmallConfig(8));
  FlowId victim;
  bool victim_completed = false;
  double survivor_done = -1.0;
  double first_done = -1.0;
  // Same uplink: 3 flows at 100/3 B/s each.
  net.start_flow(NodeId(0), NodeId(1), 100.0, [&] {
    first_done = sim.now();
    net.cancel_flow(victim);
  });
  victim = net.start_flow(NodeId(0), NodeId(2), 900.0,
                          [&] { victim_completed = true; });
  net.start_flow(NodeId(0), NodeId(3), 400.0,
                 [&] { survivor_done = sim.now(); });
  sim.run();
  EXPECT_NEAR(first_done, 3.0, 1e-9);
  EXPECT_FALSE(victim_completed);
  // Survivor: 3 s at 100/3 B/s = 100 bytes, then 300 bytes alone at
  // 100 B/s -> done at t = 6.
  EXPECT_NEAR(survivor_done, 6.0, 1e-9);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

// ---------- cancel churn ----------------------------------------------------

TEST(Network, CancelChurnKeepsAccountingExact) {
  // Regression for the O(F) cancel path: heavy interleaved start/cancel
  // churn (head, tail, middle, repeated and unknown ids) must keep slot
  // reuse, rates and delivered-byte accounting exact.
  sim::Simulator sim;
  Network net(sim, SmallConfig(16));
  custody::Rng rng(7);
  std::vector<FlowId> live;
  int completed = 0;
  double expected_bytes = 0.0;
  for (int wave = 0; wave < 20; ++wave) {
    sim.schedule(5.0 * wave, [&, wave] {
      // Cancel about half the currently live flows in random order.
      rng.shuffle(live);
      const std::size_t keep = live.size() / 2;
      while (live.size() > keep) {
        net.cancel_flow(live.back());
        net.cancel_flow(live.back());  // double-cancel: silent no-op
        live.pop_back();
      }
      net.cancel_flow(FlowId(9999999 + wave));  // unknown id: silent no-op
      for (int i = 0; i < 8; ++i) {
        const auto src = static_cast<NodeId::value_type>(rng.index(16));
        auto dst = static_cast<NodeId::value_type>(rng.index(16));
        if (dst == src) dst = (dst + 1) % 16;
        const double bytes = rng.uniform(50.0, 500.0);
        live.push_back(net.start_flow(NodeId(src), NodeId(dst), bytes,
                                      [&completed] { ++completed; }));
      }
    });
  }
  sim.schedule(100.0 + 1e-9, [&] {
    // Let every survivor run to completion from here on.
    for (const FlowId id : live) {
      expected_bytes += net.flow_remaining(id);
    }
  });
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_GT(completed, 0);
  // Everything still live at the last wave eventually completed, and the
  // delivered-byte ledger covered at least those remaining bytes.
  EXPECT_GE(net.bytes_delivered(), expected_bytes - 1e-6);
}

// ---------- stranded-flow guard ---------------------------------------------

TEST(Network, StrandedFlowsFailLoudly) {
  // rem_cap clamp-to-zero rounding path: splitting the smallest subnormal
  // capacity between two flows rounds each share to exactly 0.  Without the
  // guard no completion event can be armed and the run hangs silently.
  NetworkConfig config = SmallConfig(4);
  config.uplink_bps = std::numeric_limits<double>::denorm_min();

  {  // the batched recompute flushes at the next step.
    sim::Simulator sim;
    Network net(sim, config);
    net.start_flow(NodeId(0), NodeId(1), 10.0, [] {});
    net.start_flow(NodeId(0), NodeId(2), 10.0, [] {});
    EXPECT_THROW(sim.run(), std::runtime_error);
  }
  {  // observing a rate flushes too, and must surface the same failure.
    sim::Simulator sim;
    Network net(sim, config);
    const FlowId a = net.start_flow(NodeId(0), NodeId(1), 10.0, [] {});
    net.start_flow(NodeId(0), NodeId(2), 10.0, [] {});
    EXPECT_THROW((void)net.flow_rate(a), std::runtime_error);
  }
}

TEST(Network, FinishTimeOverflowFailsLoudly) {
  // One flow on the subnormal uplink keeps a positive (subnormal) rate, but
  // 10 B at that rate needs 10 / denorm_min = inf seconds: no completion
  // event can be armed, and the run must not end as if the flow had
  // drained.
  NetworkConfig config = SmallConfig(4);
  config.uplink_bps = std::numeric_limits<double>::denorm_min();
  sim::Simulator sim;
  Network net(sim, config);
  net.start_flow(NodeId(0), NodeId(1), 10.0, [] {});
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Network, SingleSubnormalRateFlowIsNotStranded) {
  // 1e-16 B at denorm_min B/s finishes at ~2e307 s: finite, so the guard
  // must not trip, and the flow completes exactly once.
  NetworkConfig config = SmallConfig(4);
  config.uplink_bps = std::numeric_limits<double>::denorm_min();
  sim::Simulator sim;
  Network net(sim, config);
  int completed = 0;
  const FlowId id = net.start_flow(NodeId(0), NodeId(1), 1e-16,
                                   [&completed] { ++completed; });
  EXPECT_GT(net.flow_rate(id), 0.0);
  sim.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_GT(sim.now(), 1e307);
  EXPECT_TRUE(std::isfinite(sim.now()));
}

TEST(Network, TinyResidualBytesDoNotStallTheClock) {
  // Regression: leftover rounding bytes at multi-GB/s rates used to map to
  // delays below the double-precision tick and spin the simulator forever.
  sim::Simulator sim;
  NetworkConfig config;
  config.num_nodes = 4;
  config.uplink_bps = Gbps(2.0);
  config.downlink_bps = Gbps(40.0);
  Network net(sim, config);
  int completed = 0;
  // Stagger flows so rates change mid-transfer and residuals accumulate.
  for (int i = 0; i < 40; ++i) {
    sim.schedule(0.37 * i + 60.0, [&net, &sim, &completed, i] {
      net.start_flow(NodeId(static_cast<NodeId::value_type>(i % 3)),
                     NodeId(3), MB(128.0) * (1.0 + 0.013 * i),
                     [&completed] { ++completed; });
    });
  }
  sim.run();
  EXPECT_EQ(completed, 40);
}

TEST(Network, FlowsCompleteAtSteadyStateHorizons) {
  // Regression for long horizons: the completion check forgives up to
  // rate * epsilon residual bytes, but the residual left by
  // `elapsed * rate` rounding grows with the clock (one ulp of t ~ 1e9 is
  // ~2.4e-7 s of traffic).  With the historical absolute 1e-9 tolerance
  // the check kept missing at large t and re-armed sub-ulp completion
  // events forever; TimeEpsilonAt(now) scales with the clock and absorbs
  // the residual.  Same staggered-contention shape as the small-time
  // residual test, pushed out to steady-state timestamps.
  for (const double t0 : {1400734916.308764, 1364094544598.6082}) {
    sim::Simulator sim;
    NetworkConfig config;
    config.num_nodes = 4;
    config.uplink_bps = Gbps(2.0);
    config.downlink_bps = Gbps(40.0);
    Network net(sim, config);
    int completed = 0;
    for (int i = 0; i < 25; ++i) {
      sim.schedule(t0 + 0.37 * i, [&net, &completed, i] {
        net.start_flow(NodeId(static_cast<NodeId::value_type>(i % 3)),
                       NodeId(3), MB(96.0) * (1.0 + 0.013 * i),
                       [&completed] { ++completed; });
      });
    }
    sim.run();
    EXPECT_EQ(completed, 25) << "t0=" << t0;
    EXPECT_EQ(net.active_flow_count(), 0u);
    EXPECT_GT(sim.now(), t0);
  }
}

// ---------- snapshot restore validation ------------------------------------

/// A snapshot of a 4-node network (no core) with two flows in flight,
/// 0 -> 1 in slot 0 and 2 -> 3 in slot 1, and slot 2 free (its flow was
/// cancelled), written outside any section.
std::vector<std::uint8_t> TwoFlowSnapshot() {
  sim::Simulator sim;
  Network net(sim, SmallConfig(4));
  const FlowLabel label{.kind = 1};
  const FlowId a = net.start_flow(NodeId(0), NodeId(1), 500.0, [] {}, label);
  net.start_flow(NodeId(2), NodeId(3), 700.0, [] {}, label);
  net.cancel_flow(net.start_flow(NodeId(1), NodeId(2), 900.0, [] {}, label));
  (void)net.flow_rate(a);  // flush: snapshots need settled rates
  snap::SnapshotWriter w;
  net.SaveTo(w);
  return w.finish(/*config_hash=*/0, /*sim_time=*/0.0);
}

// Byte offsets inside TwoFlowSnapshot: the 24-byte header, the free list
// (count, one slot), the live count, two live flows in start order (slot,
// src, dst, remaining, rate, label kind/a/b/c, id), then next id, bytes,
// last update, eight stats, the pending-event flag with its time and seq,
// and the solver's flow count, link count and link lists.
constexpr std::size_t kFreeEntry = 24 + 8;
constexpr std::size_t kLiveCount = kFreeEntry + 4;
constexpr std::size_t kLiveBytes = 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4 + 8 + 4;
constexpr std::size_t kLive0Slot = kLiveCount + 8;
constexpr std::size_t kLive1Slot = kLive0Slot + kLiveBytes;
constexpr std::size_t kNextFlowId = kLive0Slot + 2 * kLiveBytes;
constexpr std::size_t kSolverFlows =
    kNextFlowId + 4 + 8 + 8 + 8 * 8 + 1 + 8 + 8;
// Uplink 2's list holds slot 1, after the lists of uplinks 0 ({0}) and 1 ({}).
constexpr std::size_t kUplink2Entry = kSolverFlows + 8 + 8 + (8 + 4) + 8 + 8;

std::uint64_t ReadLe(const std::vector<std::uint8_t>& bytes, std::size_t at,
                     int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= std::uint64_t{bytes[at + static_cast<std::size_t>(i)]} << (8 * i);
  }
  return v;
}

void WriteLe(std::vector<std::uint8_t>& bytes, std::size_t at, int width,
             std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Recompute the FNV-1a footer so the patch reaches Network::RestoreFrom.
void Reseal(std::vector<std::uint8_t>& bytes) {
  WriteLe(bytes, bytes.size() - 8, 8,
          snap::Fnv1a(bytes.data(), bytes.size() - 8));
}

void Restore(std::vector<std::uint8_t> bytes) {
  sim::Simulator sim;
  Network net(sim, SmallConfig(4));
  snap::SnapshotReader r(std::move(bytes));
  net.RestoreFrom(r, [](FlowId, const FlowLabel&, NodeId, NodeId) {
    return Network::CompletionFn([] {});
  });
}

TEST(NetworkSnapshot, TwoFlowSnapshotRestoresAtTheExpectedOffsets) {
  const std::vector<std::uint8_t> bytes = TwoFlowSnapshot();
  ASSERT_EQ(ReadLe(bytes, kFreeEntry, 4), 2u);   // free: slot 2
  ASSERT_EQ(ReadLe(bytes, kLiveCount, 8), 2u);
  ASSERT_EQ(ReadLe(bytes, kLive0Slot, 4), 0u);   // oldest flow: slot 0
  ASSERT_EQ(ReadLe(bytes, kLive1Slot, 4), 1u);
  ASSERT_EQ(ReadLe(bytes, kSolverFlows, 8), 3u);
  ASSERT_EQ(ReadLe(bytes, kUplink2Entry, 4), 1u);
  EXPECT_NO_THROW(Restore(bytes));
}

// The table holds exactly the listed slots: |live| + |free| of them, each
// listed once.  Writes `slot` at `at` and expects the restore to throw.
void ExpectPatchedSlotThrows(std::size_t at, std::uint32_t slot) {
  std::vector<std::uint8_t> bytes = TwoFlowSnapshot();
  WriteLe(bytes, at, 4, slot);
  Reseal(bytes);
  EXPECT_THROW(Restore(std::move(bytes)), snap::SnapshotError)
      << "slot " << slot << " at " << at;
}

// The restore links the live flows in the order listed, so the oldest one
// becomes the list head; one past the table's 3 slots must not.
TEST(NetworkSnapshot, HeadOutsideTheFlowTableThrows) {
  ExpectPatchedSlotThrows(kLive0Slot, 3);
}

// Linking a slot that is already live, or handing out a live slot from the
// free list, would close the start-order list into a cycle.
TEST(NetworkSnapshot, CyclicFlowListThrows) {
  ExpectPatchedSlotThrows(kLive1Slot, 0);  // slot 0 live twice
  ExpectPatchedSlotThrows(kFreeEntry, 0);  // slot 0 live and free
}

// A live flow holding the next flow id would share it with the next
// start_flow, which could then be neither found nor cancelled.
TEST(NetworkSnapshot, FlowIdAtOrPastTheNextIdThrows) {
  std::vector<std::uint8_t> bytes = TwoFlowSnapshot();
  ASSERT_EQ(ReadLe(bytes, kNextFlowId, 4), 3u);
  WriteLe(bytes, kLive1Slot + kLiveBytes - 4, 4, 3);  // slot 1's flow id
  Reseal(bytes);
  EXPECT_THROW(Restore(std::move(bytes)), snap::SnapshotError);
}

TEST(NetworkSnapshot, SolverSlotOutsideTheFlowTableThrows) {
  std::vector<std::uint8_t> bytes = TwoFlowSnapshot();
  WriteLe(bytes, kSolverFlows, 8, 4);  // the solver table grows a slot 3 ...
  WriteLe(bytes, kUplink2Entry, 4, 3);  // ... which uplink 2 now carries
  Reseal(bytes);
  EXPECT_THROW(Restore(std::move(bytes)), snap::SnapshotError);
}

}  // namespace
}  // namespace custody::net
