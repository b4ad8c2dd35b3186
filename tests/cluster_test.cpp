// Tests for the physical cluster ledger: executors, ownership, idle pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/snapshot.h"

namespace custody::cluster {
namespace {

TEST(Cluster, CreatesExecutorsPerNode) {
  Cluster cluster(3, WorkerConfig{.executors_per_node = 2});
  EXPECT_EQ(cluster.num_nodes(), 3u);
  EXPECT_EQ(cluster.num_executors(), 6u);
  EXPECT_EQ(cluster.node_of(ExecutorId(0)), NodeId(0));
  EXPECT_EQ(cluster.node_of(ExecutorId(1)), NodeId(0));
  EXPECT_EQ(cluster.node_of(ExecutorId(4)), NodeId(2));
}

TEST(Cluster, RejectsDegenerateConfigs) {
  EXPECT_THROW(Cluster(0, WorkerConfig{}), std::invalid_argument);
  EXPECT_THROW(Cluster(2, WorkerConfig{.executors_per_node = 0}),
               std::invalid_argument);
}

TEST(Cluster, AssignAndRelease) {
  Cluster cluster(2, WorkerConfig{});
  cluster.assign(ExecutorId(0), AppId(7));
  EXPECT_TRUE(cluster.executor(ExecutorId(0)).allocated());
  EXPECT_EQ(cluster.executor(ExecutorId(0)).owner, AppId(7));
  EXPECT_EQ(cluster.owned_by(AppId(7)), 1);
  cluster.release(ExecutorId(0));
  EXPECT_FALSE(cluster.executor(ExecutorId(0)).allocated());
  EXPECT_EQ(cluster.owned_by(AppId(7)), 0);
}

TEST(Cluster, RejectsDoubleAssign) {
  Cluster cluster(2, WorkerConfig{});
  cluster.assign(ExecutorId(0), AppId(1));
  EXPECT_THROW(cluster.assign(ExecutorId(0), AppId(2)), std::logic_error);
}

TEST(Cluster, RejectsReleasingUnallocated) {
  Cluster cluster(2, WorkerConfig{});
  EXPECT_THROW(cluster.release(ExecutorId(0)), std::logic_error);
}

TEST(Cluster, RejectsReleasingBusy) {
  Cluster cluster(2, WorkerConfig{});
  cluster.assign(ExecutorId(0), AppId(1));
  cluster.executor(ExecutorId(0)).busy = true;
  EXPECT_THROW(cluster.release(ExecutorId(0)), std::logic_error);
}

TEST(Cluster, RejectsUnknownExecutor) {
  Cluster cluster(1, WorkerConfig{.executors_per_node = 1});
  EXPECT_THROW((void)cluster.executor(ExecutorId(5)), std::out_of_range);
}

TEST(Cluster, IdleExecutorsTrackAllocation) {
  Cluster cluster(2, WorkerConfig{.executors_per_node = 2});
  EXPECT_EQ(cluster.idle_count(), 4u);
  cluster.assign(ExecutorId(1), AppId(0));
  cluster.assign(ExecutorId(2), AppId(1));
  const auto idle = cluster.idle_executors();
  ASSERT_EQ(idle.size(), 2u);
  std::set<ExecutorId> ids;
  for (const auto& e : idle) ids.insert(e.id);
  EXPECT_TRUE(ids.count(ExecutorId(0)));
  EXPECT_TRUE(ids.count(ExecutorId(3)));
  // Idle info carries the right node.
  for (const auto& e : idle) EXPECT_EQ(e.node, cluster.node_of(e.id));
}

TEST(Cluster, BusyFlagIndependentOfOwnership) {
  Cluster cluster(1, WorkerConfig{});
  cluster.assign(ExecutorId(0), AppId(0));
  cluster.executor(ExecutorId(0)).busy = true;
  // Busy executors are not idle, but they are also not in the pool (owned).
  EXPECT_EQ(cluster.idle_count(), 1u);  // only executor 1 remains idle
  cluster.executor(ExecutorId(0)).busy = false;
  cluster.release(ExecutorId(0));
  EXPECT_EQ(cluster.idle_count(), 2u);
}

TEST(Cluster, DiskRateFromConfig) {
  Cluster cluster(2, WorkerConfig{.disk_bps = 12345.0});
  EXPECT_DOUBLE_EQ(cluster.disk_bps(NodeId(0)), 12345.0);
}

// ---------- incremental ownership / idle bookkeeping ------------------------

// Property: the incrementally-maintained structures (idle index, per-app
// held-executor lists, per-node counts, free-held and free-watched sets)
// must agree with brute-force ledger scans after arbitrary
// assign/release/busy/fail/watch interleavings.
TEST(Cluster, IncrementalBookkeepingMatchesLedgerScans) {
  Rng rng(1337);
  for (int trial = 0; trial < 10; ++trial) {
    const int num_nodes = rng.uniform_int(1, 6);
    const int per_node = rng.uniform_int(1, 3);
    const int num_apps = rng.uniform_int(1, 4);
    Cluster cluster(static_cast<std::size_t>(num_nodes),
                    WorkerConfig{.executors_per_node = per_node});
    const std::size_t num_execs = cluster.num_executors();
    // The test's own record of which nodes each app watches.
    std::vector<std::vector<bool>> watched(
        static_cast<std::size_t>(num_apps),
        std::vector<bool>(static_cast<std::size_t>(num_nodes), false));

    const auto check = [&] {
      // Idle set: count, content and order against the reference scan.
      const auto idle = cluster.idle_executors();
      ASSERT_EQ(cluster.idle_count(), idle.size());
      std::vector<core::ExecutorInfo> from_index;
      cluster.idle_index().append_infos(from_index);
      ASSERT_EQ(from_index.size(), idle.size());
      for (std::size_t i = 0; i < idle.size(); ++i) {
        ASSERT_EQ(from_index[i].id, idle[i].id);
        ASSERT_EQ(from_index[i].node, idle[i].node);
      }
      // Per-node heads.
      for (int n = 0; n < num_nodes; ++n) {
        const NodeId node(static_cast<NodeId::value_type>(n));
        ExecutorId expect = ExecutorId::invalid();
        for (const auto& info : idle) {
          if (info.node == node) {
            expect = info.id;
            break;
          }
        }
        ASSERT_EQ(cluster.first_idle_on(node), expect);
      }
      // Per-app views against owner scans.
      for (int a = 0; a < num_apps; ++a) {
        const AppId app(static_cast<AppId::value_type>(a));
        std::vector<ExecutorId> held_scan;
        std::vector<NodeId> node_scan;
        for (const Executor& exec : cluster.executors()) {
          if (exec.owner != app) continue;
          held_scan.push_back(exec.id);
          node_scan.push_back(exec.node);
        }
        std::sort(node_scan.begin(), node_scan.end());
        node_scan.erase(std::unique(node_scan.begin(), node_scan.end()),
                        node_scan.end());
        ASSERT_EQ(cluster.owned_by(app),
                  static_cast<int>(held_scan.size()));
        std::vector<ExecutorId> held;
        cluster.held_executors(app, held);
        ASSERT_EQ(held, held_scan);
        // Held nodes derive from the dense held counts.
        std::vector<NodeId> nodes;
        if (const std::vector<int>* counts = cluster.held_counts(app)) {
          for (int n = 0; n < num_nodes; ++n) {
            if ((*counts)[n] > 0) nodes.emplace_back(n);
          }
        }
        ASSERT_EQ(nodes, node_scan);
        for (int n = 0; n < num_nodes; ++n) {
          const NodeId node(static_cast<NodeId::value_type>(n));
          const bool expect = std::find(node_scan.begin(), node_scan.end(),
                                        node) != node_scan.end();
          ASSERT_EQ(cluster.holds_on(app, node), expect);
        }
        // Free-held set == ledger scan filtered on owner && !busy.
        std::vector<ExecutorId> free_scan;
        for (const Executor& exec : cluster.executors()) {
          if (exec.owner == app && !exec.busy) free_scan.push_back(exec.id);
        }
        std::vector<ExecutorId> free;
        cluster.free_held(app, free);
        ASSERT_EQ(free, free_scan);
        ASSERT_EQ(cluster.free_held_count(app), free_scan.size());
        // Successor queries walk the same set.
        std::vector<ExecutorId> walked;
        for (ExecutorId e = cluster.next_free_held(app, 0); e.valid();
             e = cluster.next_free_held(app, e.value() + 1)) {
          walked.push_back(e);
        }
        ASSERT_EQ(walked, free_scan);
        // Free-watched set == the free scan's members on watched nodes,
        // through its count and its successor walk.
        std::vector<ExecutorId> watched_scan;
        for (const ExecutorId e : free_scan) {
          if (watched[a][cluster.node_of(e).value()]) watched_scan.push_back(e);
        }
        ASSERT_EQ(cluster.free_watched_count(app), watched_scan.size());
        std::vector<ExecutorId> watched_walk;
        for (ExecutorId e = cluster.next_free_watched(app, 0); e.valid();
             e = cluster.next_free_watched(app, e.value() + 1)) {
          watched_walk.push_back(e);
        }
        ASSERT_EQ(watched_walk, watched_scan);
        // Dense per-node held counts == per-node owner scans (null only
        // before the app's first grant, when every count is zero anyway).
        const std::vector<int>* counts = cluster.held_counts(app);
        for (int n = 0; n < num_nodes; ++n) {
          const NodeId node(static_cast<NodeId::value_type>(n));
          int expect = 0;
          for (const Executor& exec : cluster.executors()) {
            if (exec.owner == app && exec.node == node) ++expect;
          }
          ASSERT_EQ(counts == nullptr ? 0 : (*counts)[n], expect);
        }
      }
    };

    check();
    for (int step = 0; step < 120; ++step) {
      const double dice = rng.uniform(0.0, 1.0);
      if (dice < 0.35) {  // try to assign a random idle executor
        const ExecutorId e(static_cast<ExecutorId::value_type>(
            rng.index(num_execs)));
        const Executor& exec = cluster.executor(e);
        if (!exec.allocated() && cluster.node_alive(exec.node)) {
          cluster.assign(e, AppId(static_cast<AppId::value_type>(
                                rng.index(num_apps))));
        }
      } else if (dice < 0.55) {  // try to release a random free held executor
        const ExecutorId e(static_cast<ExecutorId::value_type>(
            rng.index(num_execs)));
        const Executor& exec = cluster.executor(e);
        if (exec.allocated() && !exec.busy) cluster.release(e);
      } else if (dice < 0.7) {  // flip a held executor's busy flag
        const ExecutorId e(static_cast<ExecutorId::value_type>(
            rng.index(num_execs)));
        const Executor& exec = cluster.executor(e);
        if (exec.allocated()) cluster.set_busy(e, !exec.busy);
      } else if (dice < 0.73) {  // rare: kill a node
        cluster.fail_node(NodeId(static_cast<NodeId::value_type>(
            rng.index(num_nodes))));
      } else {  // set or clear a random app's watch on a random node
        const std::size_t a = rng.index(num_apps);
        const std::size_t n = rng.index(num_nodes);
        const bool watch = rng.index(2) == 0;
        cluster.set_watched(AppId(static_cast<AppId::value_type>(a)),
                            NodeId(static_cast<NodeId::value_type>(n)), watch);
        watched[a][n] = watch;
      }
      check();
    }
  }
}

// Only an application's task makes an executor busy.  A restored busy
// executor without an owner would fail Cluster::assign's `!busy` check the
// next time a manager grants it.
TEST(Cluster, RestoreRejectsBusyExecutorWithoutOwner) {
  const auto restore = [](std::uint32_t owner, bool busy) {
    Cluster cluster(2, WorkerConfig{.executors_per_node = 1});
    snap::SnapshotWriter w;
    w.begin_section("CLUS");
    w.size(2);  // nodes: alive, nominal speed
    for (int n = 0; n < 2; ++n) {
      w.b(true);
      w.f64(1.0);
    }
    w.size(2);  // executors: owner, busy
    w.u32(owner);
    w.b(busy);
    w.u32(AppId::invalid().value());
    w.b(false);
    w.u64(AppId(owner).valid() ? 1 : 2);  // idle executors after replay
    w.end_section();
    snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
    r.begin_section("CLUS");
    cluster.RestoreFrom(r);
    r.end_section();
  };
  EXPECT_NO_THROW(restore(7, true));
  EXPECT_NO_THROW(restore(AppId::invalid().value(), false));
  EXPECT_THROW(restore(AppId::invalid().value(), true), snap::SnapshotError);
}

}  // namespace
}  // namespace custody::cluster
