// End-to-end tests of the Application driver against a real simulator,
// network, DFS, cluster, and the Custody manager: job lifecycle, demand
// reporting, executor release/swap behaviour, and metrics emission.
#include <gtest/gtest.h>

#include <memory>

#include "app/application.h"
#include "cluster/custody_manager.h"
#include "cluster/standalone_manager.h"
#include "common/units.h"
#include "workload/workloads.h"

namespace custody::app {
namespace {

using custody::units::GB;
using custody::units::MB;

struct Harness {
  explicit Harness(std::size_t nodes = 8, int execs_per_node = 1)
      : dfs(MakeDfsConfig(nodes), Rng(7)),
        net(sim, MakeNetConfig(nodes)),
        cluster(nodes, MakeWorkerConfig(execs_per_node)),
        manager(sim, cluster, Locations(), cluster::CustodyConfig{2, {}}) {}

  static dfs::DfsConfig MakeDfsConfig(std::size_t nodes) {
    dfs::DfsConfig c;
    c.num_nodes = nodes;
    c.default_replication = 2;
    return c;
  }
  static net::NetworkConfig MakeNetConfig(std::size_t nodes) {
    net::NetworkConfig c;
    c.num_nodes = nodes;
    return c;
  }
  static cluster::WorkerConfig MakeWorkerConfig(int per_node) {
    cluster::WorkerConfig c;
    c.executors_per_node = per_node;
    return c;
  }
  core::BlockLocationsFn Locations() {
    return [this](BlockId b) -> const std::vector<NodeId>& {
      return dfs.locations(b);
    };
  }

  Application& make_app(AppId id, AppConfig config = {}) {
    apps.push_back(std::make_unique<Application>(
        id, sim, net, dfs, cluster, metrics, ids, Rng(100 + id.value()),
        config));
    apps.back()->attach_manager(manager);
    return *apps.back();
  }

  JobSpec simple_job(const std::string& path, double bytes,
                     double compute_per_byte = 1e-9) {
    const FileId f = dfs.write_file(path, bytes);
    JobSpec spec;
    spec.name = path;
    spec.input_file = f;
    spec.input_compute_secs_per_byte = compute_per_byte;
    return spec;
  }

  sim::Simulator sim;
  dfs::Dfs dfs;
  net::Network net;
  cluster::Cluster cluster;
  cluster::CustodyManager manager;
  metrics::MetricsCollector metrics;
  IdSource ids;
  std::vector<std::unique_ptr<Application>> apps;
};

TEST(Application, RunsASingleJobToCompletion) {
  Harness h;
  Application& app = h.make_app(AppId(0));
  const JobId job = app.submit_job(h.simple_job("/a", MB(256.0)));
  h.sim.run();
  EXPECT_EQ(app.jobs_completed(), 1);
  const Job* j = app.find_job(job);
  ASSERT_NE(j, nullptr);
  EXPECT_TRUE(j->finished);
  EXPECT_GT(j->finish_time, j->submit_time);
  EXPECT_EQ(j->input_tasks, 2);
}

TEST(Application, CustodyGivesPerfectLocalityWhenUncontended) {
  Harness h;
  Application& app = h.make_app(AppId(0));
  app.submit_job(h.simple_job("/a", MB(512.0)));
  h.sim.run();
  ASSERT_EQ(h.metrics.jobs().size(), 1u);
  EXPECT_TRUE(h.metrics.jobs().front().perfectly_local());
  EXPECT_EQ(app.launch_breakdown().local, 4);
  EXPECT_EQ(app.launch_breakdown().uncovered, 0);
}

TEST(Application, SubmitRequiresManager) {
  Harness h;
  Application orphan(AppId(9), h.sim, h.net, h.dfs, h.cluster, h.metrics,
                     h.ids, Rng(1), AppConfig{});
  JobSpec spec = h.simple_job("/x", MB(128.0));
  EXPECT_THROW(orphan.submit_job(spec), std::logic_error);
}

TEST(Application, TasksNeverWaitForAllocation) {
  // Custody allocates at the job-submission instant: the scheduler delay of
  // the first wave of tasks is zero.
  Harness h;
  Application& app = h.make_app(AppId(0));
  app.submit_job(h.simple_job("/a", MB(256.0)));
  h.sim.run();
  for (const auto& task : h.metrics.tasks()) {
    if (task.is_input) {
      EXPECT_DOUBLE_EQ(task.scheduler_delay(), 0.0);
    }
  }
}

TEST(Application, ReleasesExecutorsWhenIdle) {
  Harness h;
  AppConfig config;
  config.dynamic_executors = true;
  Application& app = h.make_app(AppId(0), config);
  app.submit_job(h.simple_job("/a", MB(256.0)));
  h.sim.run();
  EXPECT_EQ(app.executors_held(), 0);
  EXPECT_EQ(h.cluster.idle_count(), h.cluster.num_executors());
}

TEST(Application, StaticModeKeepsExecutors) {
  Harness h;
  AppConfig config;
  config.dynamic_executors = false;
  Application& app = h.make_app(AppId(0), config);
  app.submit_job(h.simple_job("/a", MB(256.0)));
  h.sim.run();
  EXPECT_GT(app.executors_held(), 0);
}

TEST(Application, PendingDemandListsUncoveredReadyTasks) {
  Harness h;
  AppConfig config;
  config.dynamic_executors = false;  // keep grants static for inspection
  Application& app = h.make_app(AppId(0), config);

  // No executors yet: every ready input task is unsatisfied.
  JobSpec spec = h.simple_job("/a", MB(384.0));
  // Build the job but freeze time so tasks stay ready (compute is long).
  spec.input_compute_secs_per_byte = 1.0;  // absurdly long tasks
  app.submit_job(spec);
  const auto demand = app.pending_demand();
  // The allocation round at submit time may have covered all tasks; demand
  // reflects what is still uncovered.
  for (const auto& job : demand) {
    EXPECT_EQ(job.total_tasks, 3);
    for (const auto& task : job.unsatisfied) {
      const auto& locs = h.dfs.locations(task.block);
      for (const auto& exec : h.cluster.executors()) {
        if (exec.owner != AppId(0)) continue;
        const bool on_replica =
            std::find(locs.begin(), locs.end(), exec.node) != locs.end();
        EXPECT_FALSE(on_replica);
      }
    }
  }
}

TEST(Application, WantedExecutorsCountsReadyAndRunning) {
  Harness h;
  Application& app = h.make_app(AppId(0));
  EXPECT_EQ(app.wanted_executors(), 0);
  JobSpec spec = h.simple_job("/a", MB(512.0));
  spec.input_compute_secs_per_byte = 1e-3;  // long enough to observe running
  app.submit_job(spec);
  EXPECT_GT(app.wanted_executors(), 0);
  h.sim.run();
  EXPECT_EQ(app.wanted_executors(), 0);
}

TEST(Application, LocalityStatsAccumulate) {
  Harness h;
  Application& app = h.make_app(AppId(0));
  app.submit_job(h.simple_job("/a", MB(256.0)));
  h.sim.run();
  const auto stats = app.locality();
  EXPECT_EQ(stats.total_jobs, 1);
  EXPECT_EQ(stats.total_tasks, 2);
  EXPECT_EQ(stats.local_jobs, 1);
  EXPECT_EQ(stats.local_tasks, 2);
}

TEST(Application, MultiStageJobRunsAllStages) {
  Harness h;
  Application& app = h.make_app(AppId(0));
  JobSpec spec = h.simple_job("/a", MB(512.0));
  ShuffleStageSpec reduce;
  reduce.num_tasks = 2;
  reduce.shuffle_bytes = MB(64.0);
  reduce.compute_secs_per_task = 0.1;
  spec.downstream.push_back(reduce);
  const JobId job = app.submit_job(spec);
  h.sim.run();
  const Job* j = app.find_job(job);
  ASSERT_NE(j, nullptr);
  EXPECT_TRUE(j->finished);
  ASSERT_EQ(j->stages.size(), 2u);
  EXPECT_TRUE(j->stages[1].complete());
  // Downstream records exist in the metrics with stage index 1.
  int downstream_records = 0;
  for (const auto& task : h.metrics.tasks()) {
    if (!task.is_input) {
      ++downstream_records;
      EXPECT_EQ(task.stage, 1);
      EXPECT_GE(task.finish_time, task.launch_time);
    }
  }
  EXPECT_EQ(downstream_records, 2);
}

TEST(Application, JobRecordCapturesInputStage) {
  Harness h;
  Application& app = h.make_app(AppId(0));
  JobSpec spec = h.simple_job("/a", MB(256.0));
  ShuffleStageSpec reduce;
  reduce.num_tasks = 1;
  reduce.shuffle_bytes = MB(16.0);
  reduce.compute_secs_per_task = 0.5;
  spec.downstream.push_back(reduce);
  app.submit_job(spec);
  h.sim.run();
  ASSERT_EQ(h.metrics.jobs().size(), 1u);
  const auto& record = h.metrics.jobs().front();
  EXPECT_GT(record.input_stage_finish, record.submit_time);
  EXPECT_GT(record.finish_time, record.input_stage_finish);
  EXPECT_EQ(record.input_tasks, 2);
}

TEST(Application, TwoAppsShareTheClusterFairly) {
  Harness h(8, 1);
  Application& a = h.make_app(AppId(0));
  Application& b = h.make_app(AppId(1));
  // Both submit at t=0; each is entitled to share = 4 executors.
  JobSpec sa = h.simple_job("/a", MB(896.0));  // 7 blocks
  JobSpec sb = h.simple_job("/b", MB(896.0));
  sa.input_compute_secs_per_byte = 1e-6;  // keep tasks running a while
  sb.input_compute_secs_per_byte = 1e-6;
  a.submit_job(sa);
  b.submit_job(sb);
  h.sim.run_until(0.1);
  EXPECT_LE(a.executors_held(), 4);
  EXPECT_LE(b.executors_held(), 4);
  EXPECT_GT(a.executors_held(), 0);
  EXPECT_GT(b.executors_held(), 0);
  h.sim.run();
  EXPECT_EQ(a.jobs_completed() + b.jobs_completed(), 2);
}

TEST(Application, SequentialJobsReuseTheCluster) {
  Harness h;
  Application& app = h.make_app(AppId(0));
  app.submit_job(h.simple_job("/a", MB(256.0)));
  h.sim.run();
  app.submit_job(h.simple_job("/b", MB(256.0)));
  h.sim.run();
  EXPECT_EQ(app.jobs_completed(), 2);
  EXPECT_EQ(h.metrics.jobs().size(), 2u);
}

TEST(Application, DelayWaitExpiryLaunchesRemoteWithoutSpinning) {
  // Regression for the retry-loop edge: the retry event fires at exactly
  // wait_start + locality_wait, where fp rounding can make
  // (wait_start + wait) - wait_start compare below wait.  Without the
  // epsilon in the expiry test, pick() re-arms a zero-delay retry at the
  // same instant forever and sim.run() never returns.  The job is
  // submitted at an awkward time so the sum actually rounds.
  Harness h(4, 1);
  // Job A monopolises node 0 for ~26 s; job B has one block on the busy
  // node 0 and one on node 1, so its node-0 task must wait out the
  // locality timer on an idle foreign executor and then go remote.
  auto& nn = const_cast<dfs::NameNode&>(h.dfs.namenode());
  auto pin = [&nn](BlockId b, NodeId target) {
    if (!nn.is_local(b, target)) nn.add_replica(b, target);
    for (NodeId existing : std::vector<NodeId>(nn.locations(b))) {
      if (existing != target) nn.remove_replica(b, existing);
    }
  };
  const FileId file_a = h.dfs.write_file("/a", MB(128.0), 1);
  pin(h.dfs.blocks_of(file_a).front(), NodeId(0));
  const FileId file_b = h.dfs.write_file("/b", MB(256.0), 1);
  pin(h.dfs.blocks_of(file_b)[0], NodeId(0));
  pin(h.dfs.blocks_of(file_b)[1], NodeId(1));

  AppConfig config;
  config.dynamic_executors = false;
  config.locality_swap = false;
  config.scheduler.kind = SchedulerKind::kDelay;
  config.scheduler.locality_wait = 3.0;
  Application& app = h.make_app(AppId(0), config);

  JobSpec spec_a;
  spec_a.name = "/a";
  spec_a.input_file = file_a;
  spec_a.input_compute_secs_per_byte = 2e-7;  // ~26.8 s on node 0
  app.submit_job(spec_a);
  JobSpec spec_b;
  spec_b.name = "/b";
  spec_b.input_file = file_b;
  spec_b.input_compute_secs_per_byte = 1e-9;  // fast
  h.sim.post_at(0.734561892337, [&app, spec_b] { app.submit_job(spec_b); });

  h.sim.run();  // hangs on a zero-delay retry loop if the edge regresses
  EXPECT_EQ(app.jobs_completed(), 2);
  const auto& breakdown = app.launch_breakdown();
  // B's node-0 task launched remotely after its wait expired.
  EXPECT_GE(breakdown.covered_busy + breakdown.uncovered, 1);
}

TEST(Application, BreakdownClassifiesNonLocalLaunches) {
  // Force a scenario with no data-local executor: a one-node "island"
  // cluster where all replicas live on node 0 but budget pins the app to a
  // foreign node is hard to build; instead verify the counters are
  // consistent: local + covered + uncovered == launched input tasks.
  Harness h;
  Application& app = h.make_app(AppId(0));
  app.submit_job(h.simple_job("/a", GB(1.0)));
  h.sim.run();
  const auto& b = app.launch_breakdown();
  EXPECT_EQ(b.local + b.covered_busy + b.uncovered, 8);
}

}  // namespace
}  // namespace custody::app
