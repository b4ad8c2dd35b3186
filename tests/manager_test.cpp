// Tests for the three cluster managers against a scripted mock application:
// standalone's static (random / spreadOut) allocation, Custody's demand-
// driven rounds, and the offer manager's round-robin offers with rejection
// retries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "cluster/custody_manager.h"
#include "cluster/offer_manager.h"
#include "cluster/standalone_manager.h"
#include "sim/simulator.h"

namespace custody::cluster {
namespace {

/// A scripted application: demands are set directly by each test.
class MockApp final : public AppHandle {
 public:
  explicit MockApp(AppId id) : id_(id) {}

  [[nodiscard]] AppId id() const override { return id_; }
  [[nodiscard]] std::vector<core::JobDemand> pending_demand() const override {
    return demand;
  }
  [[nodiscard]] int wanted_executors() const override { return wanted; }
  [[nodiscard]] core::LocalityStats locality() const override {
    return locality_stats;
  }
  void set_share(int s) override { share = s; }
  void on_executors_granted(std::span<const ExecutorId> execs) override {
    granted.insert(granted.end(), execs.begin(), execs.end());
    ++grant_calls;
  }
  bool consider_offer(ExecutorId exec, NodeId node) override {
    offers.emplace_back(exec, node);
    return accept_offers;
  }

  std::vector<core::JobDemand> demand;
  int wanted = 0;
  core::LocalityStats locality_stats;
  int share = -1;
  std::vector<ExecutorId> granted;
  /// Grant notifications: an application kicks once per notification.
  int grant_calls = 0;
  std::vector<std::pair<ExecutorId, NodeId>> offers;
  bool accept_offers = true;

 private:
  AppId id_;
};

// ---------- StandaloneManager ----------------------------------------------

TEST(StandaloneManager, GrantsFairShareAtRegistration) {
  sim::Simulator sim;
  Cluster cluster(10, WorkerConfig{.executors_per_node = 2});
  StandaloneManager manager(sim, cluster, StandaloneConfig{.expected_apps = 4});
  EXPECT_EQ(manager.share(), 5);

  MockApp app(AppId(0));
  manager.register_app(app);
  EXPECT_EQ(app.share, 5);
  EXPECT_EQ(app.granted.size(), 5u);
  EXPECT_EQ(cluster.owned_by(AppId(0)), 5);
  // The share is one batch: the app hears every id, ascending, at once,
  // so it kicks once.
  std::vector<ExecutorId> held;
  cluster.held_executors(AppId(0), held);
  EXPECT_EQ(app.granted, held);
  EXPECT_TRUE(std::is_sorted(app.granted.begin(), app.granted.end()));
  EXPECT_EQ(app.grant_calls, 1);
}

TEST(StandaloneManager, SpreadOutUsesDistinctNodes) {
  sim::Simulator sim;
  Cluster cluster(10, WorkerConfig{.executors_per_node = 2});
  StandaloneManager manager(
      sim, cluster,
      StandaloneConfig{.expected_apps = 4, .spread_out = true});
  MockApp app(AppId(0));
  manager.register_app(app);
  std::set<NodeId> nodes;
  for (ExecutorId e : app.granted) nodes.insert(cluster.node_of(e));
  EXPECT_EQ(nodes.size(), app.granted.size());  // one per node
  EXPECT_EQ(app.grant_calls, 1);
}

TEST(StandaloneManager, FourAppsPartitionTheCluster) {
  sim::Simulator sim;
  Cluster cluster(10, WorkerConfig{.executors_per_node = 2});
  StandaloneManager manager(sim, cluster, StandaloneConfig{.expected_apps = 4});
  std::vector<std::unique_ptr<MockApp>> apps;
  for (int a = 0; a < 4; ++a) {
    apps.push_back(std::make_unique<MockApp>(AppId(a)));
    manager.register_app(*apps.back());
  }
  std::set<ExecutorId> all;
  for (const auto& app : apps) {
    EXPECT_EQ(app->granted.size(), 5u);
    for (ExecutorId e : app->granted) {
      EXPECT_TRUE(all.insert(e).second) << "executor granted twice";
    }
  }
}

TEST(StandaloneManager, StaticDespiteDemandChanges) {
  sim::Simulator sim;
  Cluster cluster(4, WorkerConfig{});
  StandaloneManager manager(sim, cluster, StandaloneConfig{.expected_apps = 2});
  MockApp app(AppId(0));
  manager.register_app(app);
  const auto before = app.granted.size();
  app.wanted = 100;
  manager.on_demand_changed(app);
  sim.run();
  EXPECT_EQ(app.granted.size(), before);
}

// ---------- CustodyManager ---------------------------------------------------

struct CustodyFixture {
  sim::Simulator sim;
  Cluster cluster{4, WorkerConfig{.executors_per_node = 1}};
  std::map<BlockId, std::vector<NodeId>> locations;
  CustodyManager manager{
      sim, cluster,
      [this](BlockId b) -> const std::vector<NodeId>& { return locations[b]; },
      CustodyConfig{2, {}}};
};

TEST(CustodyManager, NoExecutorsBeforeDemand) {
  CustodyFixture f;
  MockApp app(AppId(0));
  f.manager.register_app(app);
  f.sim.run();
  EXPECT_TRUE(app.granted.empty());
  EXPECT_EQ(app.share, 2);
}

TEST(CustodyManager, GrantsDataLocalExecutorOnDemand) {
  CustodyFixture f;
  f.locations[BlockId(0)] = {NodeId(2)};
  MockApp app(AppId(0));
  f.manager.register_app(app);
  app.wanted = 1;
  app.demand.push_back({0, 1, {{1, BlockId(0)}}});
  f.manager.on_demand_changed(app);
  f.sim.run();
  ASSERT_EQ(app.granted.size(), 1u);
  EXPECT_EQ(f.cluster.node_of(app.granted[0]), NodeId(2));
}

TEST(CustodyManager, CoalescesSameInstantRounds) {
  CustodyFixture f;
  f.locations[BlockId(0)] = {NodeId(0)};
  MockApp app(AppId(0));
  f.manager.register_app(app);
  app.wanted = 1;
  app.demand.push_back({0, 1, {{1, BlockId(0)}}});
  f.manager.on_demand_changed(app);
  f.manager.on_demand_changed(app);
  f.manager.on_demand_changed(app);
  f.sim.run();
  EXPECT_EQ(app.granted.size(), 1u);
  EXPECT_EQ(f.manager.stats().allocation_rounds, 1u);
}

TEST(CustodyManager, CountsRoundsThatGrantNothing) {
  // Regression: rounds that granted nothing were invisible in the stats
  // (the counter sat behind the empty check).  With wanted = 0 no app sits
  // below its budget, so this round is a skipped one: counted, allocator
  // not run.
  CustodyFixture f;
  MockApp app(AppId(0));
  f.manager.register_app(app);
  app.wanted = 0;  // demand-capped budget is zero -> no grants possible
  app.demand.push_back({0, 1, {{1, BlockId(0)}}});
  f.manager.on_demand_changed(app);
  f.sim.run();
  EXPECT_TRUE(app.granted.empty());
  EXPECT_EQ(f.manager.stats().allocation_rounds, 1u);
  EXPECT_EQ(f.manager.stats().executors_granted, 0u);
}

TEST(CustodyManager, SkipsRoundWhenNoAppBelowBudget) {
  // Demand-driven trigger: every app already holds its demand-capped budget
  // (here: zero wanted), so the round is counted but the allocator never
  // runs.  A later round with real demand runs normally.
  CustodyFixture f;
  f.locations[BlockId(0)] = {NodeId(1)};
  MockApp app(AppId(0));
  f.manager.register_app(app);

  app.wanted = 0;  // demand-capped budget is zero -> nothing to grant
  app.demand.push_back({0, 1, {{1, BlockId(0)}}});
  f.manager.on_demand_changed(app);
  f.sim.run();
  EXPECT_TRUE(app.granted.empty());
  const ManagerStats& stats = f.manager.stats();
  EXPECT_EQ(stats.allocation_rounds, 1u);
  EXPECT_EQ(stats.rounds_skipped, 1u);
  // The allocator never ran: no demands built, nothing scanned.
  EXPECT_EQ(stats.demand_apps, 0u);
  EXPECT_EQ(stats.executors_scanned, 0u);
  EXPECT_EQ(stats.allocation_wall_seconds, 0.0);
  EXPECT_EQ(f.manager.round_wall().count, 1u);
  EXPECT_EQ(f.manager.round_wall().max, 0.0);  // a skipped round costs 0
  EXPECT_EQ(f.manager.round_yield_fraction(), 0.0);

  app.wanted = 1;
  f.manager.on_demand_changed(app);
  f.sim.run();
  EXPECT_EQ(app.granted.size(), 1u);
  EXPECT_EQ(stats.allocation_rounds, 2u);
  EXPECT_EQ(stats.rounds_skipped, 1u);  // only the first
  EXPECT_EQ(stats.executors_granted, 1u);
  EXPECT_EQ(stats.demand_apps, 1u);
  EXPECT_EQ(stats.demanded_tasks, 1u);
  EXPECT_EQ(f.manager.round_wall().count, 2u);
  EXPECT_EQ(f.manager.round_yield_fraction(), 0.5);
}

TEST(CustodyManager, RoundInstrumentationAccumulates) {
  CustodyFixture f;
  f.locations[BlockId(0)] = {NodeId(1)};
  MockApp app(AppId(0));
  f.manager.register_app(app);

  app.wanted = 1;
  app.demand.push_back({0, 1, {{1, BlockId(0)}}});
  f.manager.on_demand_changed(app);
  f.sim.run();

  const auto& stats = f.manager.stats();
  EXPECT_EQ(stats.allocation_rounds, 1u);
  EXPECT_EQ(stats.rounds_skipped, 0u);
  EXPECT_EQ(stats.executors_granted, 1u);
  EXPECT_GT(stats.executors_scanned, 0u);
  EXPECT_GT(stats.apps_considered, 0u);
  // The one round's wall sample is the whole allocator wall time.
  const Summary wall = f.manager.round_wall();
  EXPECT_EQ(wall.count, 1u);
  EXPECT_GE(wall.min, 0.0);
  EXPECT_EQ(wall.max, stats.allocation_wall_seconds);
  EXPECT_EQ(f.manager.round_yield_fraction(), 1.0);
}

TEST(CustodyManager, RejectsDuplicateAppIds) {
  CustodyFixture f;
  MockApp a(AppId(0));
  MockApp b(AppId(0));
  f.manager.register_app(a);
  EXPECT_THROW(f.manager.register_app(b), std::invalid_argument);
}

TEST(CustodyManager, RoutesGrantsAcrossManyApps) {
  // The AppId -> handle map must route every grant to the right app even
  // when registration order and id order disagree.
  sim::Simulator sim;
  Cluster cluster(16, WorkerConfig{.executors_per_node = 1});
  std::map<BlockId, std::vector<NodeId>> locations;
  CustodyManager manager(
      sim, cluster,
      [&locations](BlockId b) -> const std::vector<NodeId>& {
        return locations[b];
      },
      CustodyConfig{8, {}});
  std::vector<std::unique_ptr<MockApp>> apps;
  for (int a = 7; a >= 0; --a) {  // reverse registration order
    apps.push_back(std::make_unique<MockApp>(AppId(a)));
    manager.register_app(*apps.back());
  }
  for (auto& app : apps) {
    app->wanted = 2;
    locations[BlockId(app->id().value())] = {NodeId(app->id().value())};
    app->demand.push_back(
        {app->id().value(), 1, {{app->id().value(), BlockId(app->id().value())}}});
    manager.on_demand_changed(*app);
  }
  sim.run();
  for (auto& app : apps) {
    ASSERT_EQ(app->granted.size(), 2u) << "app " << app->id();
    // The data-local grant lands on the node storing the app's block.
    EXPECT_EQ(cluster.node_of(app->granted[0]), NodeId(app->id().value()));
  }
}

TEST(CustodyManager, DemandCapsBudgetBelowShare) {
  CustodyFixture f;
  MockApp app(AppId(0));
  f.manager.register_app(app);
  app.wanted = 1;  // share is 2, but only one task is runnable
  app.demand.push_back({0, 1, {{1, BlockId(9)}}});  // no locations known
  f.manager.on_demand_changed(app);
  f.sim.run();
  EXPECT_EQ(app.granted.size(), 1u);  // backfill to the demand cap only
}

TEST(CustodyManager, ReleaseTriggersReallocationToOtherApp) {
  CustodyFixture f;
  f.locations[BlockId(0)] = {NodeId(1)};
  MockApp a(AppId(0));
  MockApp b(AppId(1));
  f.manager.register_app(a);
  f.manager.register_app(b);

  a.wanted = 4;
  a.demand.push_back({0, 1, {{1, BlockId(0)}}});
  f.manager.on_demand_changed(a);
  f.sim.run();
  EXPECT_EQ(f.cluster.owned_by(AppId(0)), 2);  // share-capped

  // App 0 finishes: it releases its executors; app 1 now has demand.
  a.wanted = 0;
  a.demand.clear();
  b.wanted = 1;
  b.demand.push_back({1, 1, {{2, BlockId(0)}}});
  f.manager.on_demand_changed(b);
  for (ExecutorId e : a.granted) f.manager.release_executor(e);
  f.sim.run();
  ASSERT_GE(b.granted.size(), 1u);
  EXPECT_EQ(f.cluster.node_of(b.granted[0]), NodeId(1));
}

TEST(CustodyManager, FairnessPrefersLessLocalizedApp) {
  CustodyFixture f;
  f.locations[BlockId(0)] = {NodeId(3)};
  MockApp rich(AppId(0));
  MockApp poor(AppId(1));
  f.manager.register_app(rich);
  f.manager.register_app(poor);
  rich.locality_stats = {10, 10, 100, 100};  // all local so far
  poor.locality_stats = {0, 10, 0, 100};     // nothing local so far
  for (MockApp* app : {&rich, &poor}) {
    app->wanted = 1;
    app->demand.push_back(
        {app->id().value(), 1, {{app->id().value() * 10, BlockId(0)}}});
  }
  f.manager.on_demand_changed(rich);
  f.sim.run();
  // Only one executor sits on node 3; the poor app must get it.
  ASSERT_EQ(poor.granted.size(), 1u);
  EXPECT_EQ(f.cluster.node_of(poor.granted[0]), NodeId(3));
}

TEST(CustodyManager, RequiresLocationsCallback) {
  sim::Simulator sim;
  Cluster cluster(2, WorkerConfig{});
  EXPECT_THROW(CustodyManager(sim, cluster, nullptr, CustodyConfig{}),
               std::invalid_argument);
}

// ---------- OfferManager -----------------------------------------------------

TEST(OfferManager, OffersIdleExecutorsOnDemand) {
  sim::Simulator sim;
  Cluster cluster(2, WorkerConfig{.executors_per_node = 1});
  OfferManager manager(sim, cluster, OfferConfig{.expected_apps = 2});
  MockApp app(AppId(0));
  manager.register_app(app);
  app.wanted = 1;
  manager.on_demand_changed(app);
  EXPECT_FALSE(app.offers.empty());
  EXPECT_EQ(app.granted.size(), 1u);  // accepted the first offer
}

TEST(OfferManager, RejectionCountsAndRetries) {
  sim::Simulator sim;
  Cluster cluster(2, WorkerConfig{.executors_per_node = 1});
  OfferManager manager(sim, cluster,
                       OfferConfig{.expected_apps = 2, .reoffer_interval = 0.5});
  MockApp app(AppId(0));
  app.accept_offers = false;
  manager.register_app(app);
  app.wanted = 1;
  manager.on_demand_changed(app);
  const auto rejected_initially = manager.stats().offers_rejected;
  EXPECT_GT(rejected_initially, 0u);
  // After a retry interval the same executors are offered again; accept now.
  app.accept_offers = true;
  sim.run_until(0.6);
  EXPECT_EQ(app.granted.size(), 1u);
  EXPECT_GT(manager.stats().offers_made, rejected_initially);
}

TEST(OfferManager, RespectsShareCap) {
  sim::Simulator sim;
  Cluster cluster(2, WorkerConfig{.executors_per_node = 2});
  OfferManager manager(sim, cluster, OfferConfig{.expected_apps = 2});
  MockApp app(AppId(0));
  manager.register_app(app);
  app.wanted = 10;
  manager.on_demand_changed(app);
  sim.run();
  EXPECT_EQ(static_cast<int>(app.granted.size()), manager.share());
}

TEST(OfferManager, RoundRobinAcrossApps) {
  sim::Simulator sim;
  Cluster cluster(4, WorkerConfig{.executors_per_node = 1});
  OfferManager manager(sim, cluster, OfferConfig{.expected_apps = 2});
  MockApp a(AppId(0));
  MockApp b(AppId(1));
  manager.register_app(a);
  manager.register_app(b);
  a.wanted = 2;
  b.wanted = 2;
  manager.on_demand_changed(a);
  sim.run();
  EXPECT_EQ(a.granted.size(), 2u);
  EXPECT_EQ(b.granted.size(), 2u);
}

}  // namespace
}  // namespace custody::cluster
