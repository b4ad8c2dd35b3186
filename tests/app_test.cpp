// End-to-end tests of the Application driver against a real simulator,
// network, DFS, cluster, and the Custody manager: job lifecycle, demand
// reporting, executor release/swap behaviour, and metrics emission.  Also
// forged snapshot sections: a restore must reject every index it would
// later follow out of range.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/application.h"
#include "cluster/custody_manager.h"
#include "cluster/standalone_manager.h"
#include "common/snapshot.h"
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

// A standalone registration grants the whole share as one batch: the app
// hears it once and kicks once.  No job exists yet, so the kick visits one
// free executor and launches nothing.
TEST(Application, StandaloneRegistrationKicksOnce) {
  Harness h(8, 2);
  cluster::StandaloneManager standalone(
      h.sim, h.cluster, cluster::StandaloneConfig{.expected_apps = 2});
  AppConfig config;
  config.dynamic_executors = false;
  Application app(AppId(0), h.sim, h.net, h.dfs, h.cluster, h.metrics, h.ids,
                  Rng(1), config);
  app.attach_manager(standalone);
  EXPECT_EQ(app.executors_held(), 8);
  EXPECT_EQ(app.work().kicks, 1u);
  EXPECT_EQ(app.work().kick_probes, 1u);
  EXPECT_EQ(app.work().launches, 0u);
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

// ---------- forged snapshot sections ----------------------------------------
//
// A hand-written APPS section for one application, in the layout
// Application::SaveTo writes.  The default is a valid restore target: one
// active job (id 0) whose single stage lists one ready input task (id 0)
// reading block 0.  Each test breaks one index the restored run would
// follow and expects snap::SnapshotError before anything is re-armed.

constexpr std::uint32_t kInvalid = 0xffffffffu;  // an invalid id

struct ForgedAttempt {
  std::uint32_t executor = kInvalid;
  TimerKind timer = TimerKind::kNone;
};

struct ForgedTask {
  std::uint32_t id = 0;
  std::uint32_t job = 0;
  std::int64_t stage = 0;
  std::int64_t index = 0;
  std::uint32_t block = 0;
  TaskState state = TaskState::kReady;
  std::vector<std::uint32_t> fetch_sources;
  ForgedAttempt primary;
  bool spec_active = false;
  ForgedAttempt clone;
};

struct ForgedStage {
  std::int64_t index = 0;
  std::vector<std::uint32_t> tasks;
  std::int64_t finished = 0;
  std::vector<std::uint32_t> output_nodes;
};

struct ForgedJob {
  std::uint32_t id = 0;
  std::vector<ForgedStage> stages;
};

void WriteAttempt(snap::SnapshotWriter& w, const ForgedAttempt& a) {
  w.u32(a.executor);
  w.b(false);   // local
  w.f64(0.0);   // compute_start
  w.u8(static_cast<std::uint8_t>(a.timer));
  if (a.timer != TimerKind::kNone) {
    w.f64(1.0);  // fires at t = 1
    w.u64(0);    // original sequence number
  }
  w.u32(kInvalid);  // read flow
}

struct ForgedApp {
  std::vector<ForgedJob> jobs = {ForgedJob{0, {ForgedStage{0, {0}, 0, {}}}}};
  std::vector<std::uint32_t> active = {0};
  std::vector<ForgedTask> tasks = {ForgedTask{}};
  /// The running-task count written; by default the tasks in kRunning.
  std::optional<std::int64_t> running_count;

  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    snap::SnapshotWriter w;
    w.begin_section("APPS");
    Rng(1).SaveTo(w);
    w.i64(0);  // share
    w.i64(running_count.value_or(
        std::count_if(tasks.begin(), tasks.end(), [](const ForgedTask& t) {
          return t.state == TaskState::kRunning;
        })));
    for (int i = 0; i < 5; ++i) w.u64(0);  // job and clone counters
    for (int i = 0; i < 4; ++i) w.i64(0);  // locality stats
    for (int i = 0; i < 3; ++i) w.u64(0);  // launch breakdown
    for (int i = 0; i < 7; ++i) w.u64(0);  // work counters
    w.b(false);                            // no retry armed
    w.size(jobs.size());
    for (const ForgedJob& j : jobs) {
      w.u32(j.id);
      w.str("forged");
      w.u32(0);  // input file
      for (int i = 0; i < 3; ++i) w.f64(0.0);  // submit/input/finish times
      w.b(false);                              // finished
      for (int i = 0; i < 3; ++i) w.i64(0);    // input task counters
      w.f64(-1.0);                             // wait_start
      w.size(j.stages.size());
      for (const ForgedStage& s : j.stages) {
        w.i64(s.index);
        w.size(s.tasks.size());
        for (const std::uint32_t t : s.tasks) w.u32(t);
        w.i64(s.finished);
        w.f64(0.0);  // ready_time
        w.size(s.output_nodes.size());
        for (const std::uint32_t n : s.output_nodes) w.u32(n);
      }
    }
    w.size(active.size());
    for (const std::uint32_t j : active) w.u32(j);
    w.size(tasks.size());
    for (const ForgedTask& t : tasks) {
      w.u32(t.id);
      w.u32(t.job);
      w.i64(t.stage);
      w.i64(t.index);
      w.u32(t.block);
      w.f64(MB(64.0));  // input bytes
      w.f64(1.0);       // compute secs
      w.u8(static_cast<std::uint8_t>(t.state));
      for (int i = 0; i < 3; ++i) w.f64(0.0);  // ready/launch/finish times
      w.i64(0);                                // fetches outstanding
      w.size(t.fetch_sources.size());
      for (const std::uint32_t n : t.fetch_sources) w.u32(n);
      w.u32(0);  // epoch
      WriteAttempt(w, t.primary);
      w.b(t.spec_active);
      WriteAttempt(w, t.clone);
    }
    w.end_section();
    return w.finish(/*config_hash=*/0, /*sim_time=*/0.0);
  }
};

/// A 4-node cluster (one executor per node) holding block 0.
class ForgedSnapshot : public ::testing::Test {
 protected:
  ForgedSnapshot() : h(4) { (void)h.dfs.write_file("/in", MB(64.0)); }

  /// Restores `forged` into a fresh application and returns the
  /// snap::SnapshotError message, or "" when the restore is accepted (any
  /// other exception fails the test).
  std::string Rejection(const ForgedApp& forged) {
    Application& app =
        h.make_app(AppId(static_cast<AppId::value_type>(h.apps.size())));
    snap::SnapshotReader r(forged.bytes());
    r.begin_section("APPS");
    try {
      app.RestoreFrom(r);
    } catch (const snap::SnapshotError& e) {
      return e.what();
    }
    r.end_section();
    return "";
  }

  void ExpectRejected(const ForgedApp& forged, const std::string& reason) {
    const std::string message = Rejection(forged);
    EXPECT_NE(message.find(reason), std::string::npos)
        << "want \"" << reason << "\", got \"" << message << "\"";
  }

  /// A running input task with a pending compute timer on executor 0.
  static ForgedApp Running() {
    ForgedApp f;
    f.tasks[0].state = TaskState::kRunning;
    f.tasks[0].primary.executor = 0;
    f.tasks[0].primary.timer = TimerKind::kCompute;
    return f;
  }

  /// Job 0's input task 0 has finished on node 0; its shuffle stage lists
  /// task 1, which is ready to fetch from node 0.
  static ForgedApp Shuffle() {
    ForgedApp f;
    ForgedStage& input = f.jobs[0].stages[0];
    input.finished = 1;
    input.output_nodes = {0};
    ForgedStage shuffle;
    shuffle.index = 1;
    shuffle.tasks = {1};
    f.jobs[0].stages.push_back(shuffle);
    f.tasks[0].state = TaskState::kFinished;
    ForgedTask fetch;
    fetch.id = 1;
    fetch.stage = 1;
    fetch.block = kInvalid;
    fetch.fetch_sources = {0};
    f.tasks.push_back(fetch);
    return f;
  }

  Harness h;
};

TEST_F(ForgedSnapshot, WellFormedSectionsRestore) {
  EXPECT_EQ(Rejection(ForgedApp{}), "");
  EXPECT_EQ(Rejection(Running()), "");
  EXPECT_EQ(Rejection(Shuffle()), "");
  ForgedApp cloned = Running();
  cloned.tasks[0].spec_active = true;
  cloned.tasks[0].clone.executor = 1;
  cloned.tasks[0].clone.timer = TimerKind::kRead;
  EXPECT_EQ(Rejection(cloned), "");
}

TEST_F(ForgedSnapshot, RejectsTaskOfInactiveJob) {
  ForgedApp f;
  f.active.clear();
  ExpectRejected(f, "tasks no active job lists");
}

// Restored, this task's compute timer would index stage 5 of a one-stage
// job when it fires.
TEST_F(ForgedSnapshot, RejectsTaskOutsideItsJobsStages) {
  ForgedApp f = Running();
  f.tasks[0].stage = 5;
  ExpectRejected(f, "stage slot disagrees with the task table for task 0");
}

TEST_F(ForgedSnapshot, RejectsTaskItsStageDoesNotList) {
  ForgedApp f;
  f.tasks.push_back(f.tasks[0]);
  f.tasks[1].id = 1;  // claims task 0's slot
  ExpectRejected(f, "tasks no active job lists");
}

TEST_F(ForgedSnapshot, RejectsStageIndexOtherThanItsPosition) {
  ForgedApp f;
  f.jobs[0].stages[0].index = 1;
  ExpectRejected(f, "malformed stage in job 0");
}

TEST_F(ForgedSnapshot, RejectsStageFinishedCountAboveItsTasks) {
  ForgedApp f;
  f.jobs[0].stages[0].finished = 2;
  ExpectRejected(f, "malformed stage in job 0");
}

// Restored, the shuffle task would run before its input stage finished,
// and finishing that stage would ready it a second time.
TEST_F(ForgedSnapshot, RejectsTaskStateOutOfStepWithItsStage) {
  ForgedApp f = Shuffle();
  f.tasks[0].state = TaskState::kReady;
  f.jobs[0].stages[0].finished = 0;
  ExpectRejected(f, "stage slot disagrees with the task table for task 1");
  f = Shuffle();
  f.jobs[0].stages[0].finished = 0;  // its one task has finished
  ExpectRejected(f, "malformed stage in job 0");
}

TEST_F(ForgedSnapshot, RejectsListedTaskMissingFromTaskTable) {
  ForgedApp f;
  f.jobs[0].stages[0].tasks.push_back(9);
  ExpectRejected(f, "stage slot disagrees with the task table for task 9");
}

// Restored, this task would start a flow from node 1000 of 4 at its launch.
TEST_F(ForgedSnapshot, RejectsFetchSourceOffTheCluster) {
  ForgedApp f = Shuffle();
  f.tasks[1].fetch_sources = {1000};
  ExpectRejected(f, "unknown node or block read by task 1");
}

TEST_F(ForgedSnapshot, RejectsStageOutputNodeOffTheCluster) {
  ForgedApp f = Shuffle();
  f.jobs[0].stages[0].output_nodes = {1000};
  ExpectRejected(f, "malformed stage in job 0");
}

TEST_F(ForgedSnapshot, RejectsUnknownExecutor) {
  ForgedApp f = Running();
  f.tasks[0].primary.executor = 4;
  ExpectRejected(f, "unknown executor");
  f = Running();
  f.tasks[0].spec_active = true;
  f.tasks[0].clone.executor = 4;
  ExpectRejected(f, "unknown executor");
}

TEST_F(ForgedSnapshot, RejectsUnknownBlock) {
  ForgedApp f;
  f.tasks[0].block = 1;
  ExpectRejected(f, "unknown node or block read by task 0");
}

TEST_F(ForgedSnapshot, RejectsCloneOfTaskThatIsNotARunningInput) {
  ForgedApp f;
  f.tasks[0].spec_active = true;
  f.tasks[0].clone.executor = 1;
  ExpectRejected(f, "clone of a task that is not a running input task");
}

TEST_F(ForgedSnapshot, RejectsTimerOfAttemptThatIsNotRunning) {
  ForgedApp f;
  f.tasks[0].primary.timer = TimerKind::kCompute;
  ExpectRejected(f, "a timer of a stopped attempt");
  f = Running();
  f.tasks[0].clone.timer = TimerKind::kRead;
  ExpectRejected(f, "a timer of a stopped attempt");
}

TEST_F(ForgedSnapshot, RejectsDuplicateJobTaskAndActiveEntries) {
  ForgedApp f;
  f.jobs.push_back(f.jobs[0]);
  ExpectRejected(f, "duplicate job 0");
  f = ForgedApp{};
  f.tasks.push_back(f.tasks[0]);
  ExpectRejected(f, "duplicate task 0");
  f = ForgedApp{};
  f.active.push_back(0);
  ExpectRejected(f, "listed twice");
}

// Restored, a running task with a count of 0 would drive the count to -1
// when it finishes; wanted_executors() feeds every manager's budget from it.
TEST_F(ForgedSnapshot, RejectsRunningTaskCountOtherThanTheRunningTasks) {
  for (const std::int64_t count : {0, 2, -1}) {
    ForgedApp f = Running();
    f.running_count = count;
    ExpectRejected(f, "running-task count disagrees with the task table");
  }
  ForgedApp f;
  f.running_count = 1;  // the one task is ready, not running
  ExpectRejected(f, "running-task count disagrees with the task table");
}

TEST_F(ForgedSnapshot, RejectsActiveJobWithoutStages) {
  ForgedApp f;
  f.jobs[0].stages.clear();
  f.tasks.clear();
  ExpectRejected(f, "no input stage in job 0");
}

// Task ids need not ascend with job ids in a snapshot.  The ready index
// sorts a node's ready pairs by (job, task), so such a restore still
// schedules in job order: the first grant on a replica node launches job
// 0's task 7 there, the second job 1's task 3, both locally.
TEST_F(ForgedSnapshot, TaskIdsOutOfJobOrderRestoreToAWorkingIndex) {
  ForgedApp f;
  f.jobs = {ForgedJob{0, {ForgedStage{0, {7}, 0, {}}}},
            ForgedJob{1, {ForgedStage{0, {3}, 0, {}}}}};
  f.active = {0, 1};
  f.tasks.assign(2, ForgedTask{});
  f.tasks[0].id = 7;
  f.tasks[1].id = 3;
  f.tasks[1].job = 1;
  ASSERT_EQ(Rejection(f), "");
  Application& app = *h.apps.back();
  EXPECT_EQ(app.wanted_executors(), 2);
  const std::vector<NodeId> replicas = h.dfs.locations(BlockId(0));
  ASSERT_EQ(replicas.size(), 2u);
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ExecutorId exec(replicas[i].value());  // one executor per node
    h.cluster.assign(exec, app.id());
    app.on_executor_granted(exec);
    EXPECT_EQ(app.find_job(JobId(0))->launched_input_tasks, 1);
    EXPECT_EQ(app.find_job(JobId(1))->launched_input_tasks, i == 0 ? 0 : 1);
  }
  EXPECT_EQ(app.launch_breakdown().local, 2u);
  h.sim.run();
  EXPECT_EQ(app.jobs_completed(), 2u);
}

}  // namespace
}  // namespace custody::app
