// Tests for the in-application task schedulers: delay scheduling semantics,
// locality-preferred and FIFO variants, answered from the ReadyTaskIndex.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "app/ready_index.h"
#include "app/scheduler.h"
#include "common/units.h"

namespace custody::app {
namespace {

using custody::units::MB;

/// Builds a self-contained scheduling scenario: a DFS with chosen block
/// locations and a single job whose input tasks read those blocks.
class SchedulerFixture {
 public:
  SchedulerFixture() : dfs_(MakeConfig(), Rng(1)) {}

  BlockId add_block(std::vector<NodeId> nodes) {
    const FileId f =
        dfs_.write_file("/b" + std::to_string(next_file_++), MB(1.0), 1);
    const BlockId b = dfs_.blocks_of(f).front();
    // Rewrite the replica set to the requested nodes.
    auto& nn = const_cast<dfs::NameNode&>(dfs_.namenode());
    for (NodeId n : nodes) {
      if (!nn.is_local(b, n)) nn.add_replica(b, n);
    }
    for (NodeId existing : std::vector<NodeId>(nn.locations(b))) {
      if (std::find(nodes.begin(), nodes.end(), existing) == nodes.end()) {
        nn.remove_replica(b, existing);
      }
    }
    return b;
  }

  Job& add_job() {
    jobs_storage_.push_back(std::make_unique<Job>());
    Job& j = *jobs_storage_.back();
    j.id = JobId(static_cast<JobId::value_type>(jobs_storage_.size()));
    j.stages.push_back(Stage{});
    jobs_.push_back(&j);
    return j;
  }

  Task& add_input_task(Job& j, BlockId block, TaskState state) {
    Task t;
    t.id = TaskId(next_task_++);
    t.job = j.id;
    t.stage = 0;
    t.block = block;
    t.state = state;
    j.stages.front().tasks.push_back(t.id);
    j.input_tasks += 1;
    auto [it, inserted] = tasks_.emplace(t.id, t);
    return it->second;
  }

  Task& add_downstream_task(Job& j, TaskState state) {
    if (j.stages.size() < 2) {
      Stage s;
      s.index = 1;
      j.stages.push_back(s);
    }
    Task t;
    t.id = TaskId(next_task_++);
    t.job = j.id;
    t.stage = 1;
    t.state = state;
    j.stages.back().tasks.push_back(t.id);
    auto [it, inserted] = tasks_.emplace(t.id, t);
    return it->second;
  }

  const dfs::Dfs& dfs() const { return dfs_; }
  const TaskTable& tasks() const { return tasks_; }
  std::vector<Job*>& jobs() { return jobs_; }

 private:
  static dfs::DfsConfig MakeConfig() {
    dfs::DfsConfig c;
    c.num_nodes = 8;
    c.default_replication = 1;
    return c;
  }

  dfs::Dfs dfs_;
  TaskTable tasks_;
  std::vector<std::unique_ptr<Job>> jobs_storage_;
  std::vector<Job*> jobs_;
  TaskId::value_type next_task_ = 0;
  int next_file_ = 0;
};

SchedulerConfig Delay(double wait = 3.0) {
  return {SchedulerKind::kDelay, wait};
}

/// make() must be called after the scenario is built — it snapshots the
/// ready tasks into the index the scheduler reads.
class Scheduler : public testing::Test {
 protected:
  TaskScheduler make(SchedulerConfig cfg) {
    index_ = std::make_unique<ReadyTaskIndex>(f.dfs());
    for (const auto& [id, t] : f.tasks()) {
      if (t.state == TaskState::kReady) index_->task_ready(t);
    }
    return TaskScheduler(cfg, *index_);
  }

  SchedulerFixture f;

 private:
  std::unique_ptr<ReadyTaskIndex> index_;
};

TEST_F(Scheduler, DelayPrefersLocalInputTask) {
  Job& j = f.add_job();
  const BlockId remote = f.add_block({NodeId(5)});
  const BlockId local = f.add_block({NodeId(1)});
  f.add_input_task(j, remote, TaskState::kReady);
  Task& local_task = f.add_input_task(j, local, TaskState::kReady);

  TaskScheduler sched = make(Delay());
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, local_task.id);
  EXPECT_TRUE(pick->local);
}

TEST_F(Scheduler, DelayWaitsBeforeGoingRemote) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);

  TaskScheduler sched = make(Delay(3.0));
  std::optional<SimTime> retry;
  // First ask at t=0: nothing local -> the job starts its wait.
  EXPECT_FALSE(sched.pick(NodeId(1), 0.0, f.jobs(), retry));
  EXPECT_TRUE(j.waiting_since_set());
  ASSERT_TRUE(retry.has_value());
  EXPECT_DOUBLE_EQ(*retry, 3.0);
  // Still within the wait: refuse again.
  EXPECT_FALSE(sched.pick(NodeId(1), 2.9, f.jobs(), retry));
  // Wait expired: accept the remote slot.
  const auto pick = sched.pick(NodeId(1), 3.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_FALSE(pick->local);
}

TEST_F(Scheduler, DelayWaitExpiryExactTimeDoesNotSpin) {
  // Regression: the retry event fires at exactly wait_start + wait; the
  // comparison must treat that instant as expired despite fp rounding.
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  TaskScheduler sched = make(Delay(3.0));
  std::optional<SimTime> retry;
  const double start = 9.133414204015;  // awkward binary representation
  EXPECT_FALSE(sched.pick(NodeId(1), start, f.jobs(), retry));
  ASSERT_TRUE(retry.has_value());
  const auto pick =
      sched.pick(NodeId(1), *retry, f.jobs(), retry);
  EXPECT_TRUE(pick.has_value());
}

TEST_F(Scheduler, DelayWaitExpiryStillFiresAtSteadyStateHorizons) {
  // Regression for long horizons: one ulp of the clock at t ~ 1e9 is
  // ~2.4e-7 s, so `(wait_start + wait) - wait_start` can round short of
  // `wait` by far more than the historical absolute 1e-9 tolerance.  With
  // that constant the retry event at `expires` refused the pick and
  // re-armed itself forever; TimeEpsilonAt scales with the clock and must
  // treat the retry instant as expired.
  Job& billions = f.add_job();
  f.add_input_task(billions, f.add_block({NodeId(5)}), TaskState::kReady);
  Job& trillions = f.add_job();
  f.add_input_task(trillions, f.add_block({NodeId(5)}), TaskState::kReady);
  const struct {
    Job* job;
    double start;
    double wait;
  } cases[] = {
      {&billions, 1400734916.308764, 0.3},    // rounds ~4.8e-8 short
      {&trillions, 1364094544598.6082, 3.7},  // rounds ~4.9e-5 short
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.start);
    TaskScheduler sched = make(Delay(c.wait));
    std::vector<Job*> only{c.job};
    std::optional<SimTime> retry;
    EXPECT_FALSE(sched.pick(NodeId(1), c.start, only, retry));
    ASSERT_TRUE(retry.has_value());
    // Confirm the scenario bites: the retry instant minus the wait start is
    // genuinely short of the wait by more than the old absolute epsilon.
    ASSERT_LT(*retry - c.start, c.wait - 1e-9);
    const auto pick = sched.pick(NodeId(1), *retry, only, retry);
    EXPECT_TRUE(pick.has_value());
    EXPECT_FALSE(pick->local);
  }
}

TEST(DelayScheduler, LocalLaunchResetsWait) {
  SchedulerFixture f;
  Job& j = f.add_job();
  Task& t = f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kReady);
  j.wait_start = 5.0;
  t.local = true;
  const ReadyTaskIndex index(f.dfs());
  TaskScheduler sched(Delay(), index);
  sched.on_launched(j, t);
  EXPECT_FALSE(j.waiting_since_set());
}

TEST(DelayScheduler, NonLocalLaunchKeepsExpiredTimer) {
  SchedulerFixture f;
  Job& j = f.add_job();
  Task& t = f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  j.wait_start = 5.0;
  t.local = false;
  const ReadyTaskIndex index(f.dfs());
  TaskScheduler sched(Delay(), index);
  sched.on_launched(j, t);
  // The expired timer persists so follow-up tasks launch without re-waiting.
  EXPECT_TRUE(j.waiting_since_set());
}

TEST_F(Scheduler, DelayDownstreamTasksLaunchAnywhere) {
  Job& j = f.add_job();
  Task& reduce = f.add_downstream_task(j, TaskState::kReady);
  TaskScheduler sched = make(Delay());
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(7), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, reduce.id);
}

TEST_F(Scheduler, DelaySkipsJobButServesNextOne) {
  Job& first = f.add_job();
  f.add_input_task(first, f.add_block({NodeId(5)}), TaskState::kReady);
  Job& second = f.add_job();
  Task& local = f.add_input_task(second, f.add_block({NodeId(1)}),
                                 TaskState::kReady);
  TaskScheduler sched = make(Delay());
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, local.id);  // job 1 skipped, job 2 local served
  EXPECT_TRUE(first.waiting_since_set());
}

TEST_F(Scheduler, DelayIgnoresNonReadyTasks) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kBlocked);
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kRunning);
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kFinished);
  TaskScheduler sched = make(Delay());
  std::optional<SimTime> retry;
  EXPECT_FALSE(sched.pick(NodeId(1), 0.0, f.jobs(), retry));
  EXPECT_FALSE(retry.has_value());  // nothing will become pickable by time
}

TEST_F(Scheduler, LocalityPreferredNeverWaits) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  TaskScheduler sched = make({SchedulerKind::kLocalityPreferred, 3.0});
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_FALSE(pick->local);
  EXPECT_FALSE(j.waiting_since_set());
}

TEST_F(Scheduler, LocalityPreferredStillPrefersLocal) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  Task& local = f.add_input_task(j, f.add_block({NodeId(1)}),
                                 TaskState::kReady);
  TaskScheduler sched = make({SchedulerKind::kLocalityPreferred, 0.0});
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, local.id);
}

TEST_F(Scheduler, FifoIgnoresLocalityEntirely) {
  Job& j = f.add_job();
  Task& first = f.add_input_task(j, f.add_block({NodeId(5)}),
                                 TaskState::kReady);
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kReady);
  TaskScheduler sched = make({SchedulerKind::kFifo, 3.0});
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, first.id);  // stage order, not locality
  EXPECT_FALSE(pick->local);
}

TEST_F(Scheduler, FifoStillReportsLocalityForMetrics) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kReady);
  TaskScheduler sched = make({SchedulerKind::kFifo, 0.0});
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_TRUE(pick->local);  // happened to be local
}

TEST_F(Scheduler, HasLocalReadyInput) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(2)}), TaskState::kReady);
  TaskScheduler sched = make(Delay());
  EXPECT_TRUE(sched.has_local_ready_input(j, NodeId(2)));
  EXPECT_FALSE(sched.has_local_ready_input(j, NodeId(3)));
}

TEST_F(Scheduler, ZeroWaitDelayActsLikeLocalityPreferred) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  TaskScheduler sched = make(Delay(0.0));
  std::optional<SimTime> retry;
  EXPECT_TRUE(sched.pick(NodeId(1), 0.0, f.jobs(), retry));
}

}  // namespace
}  // namespace custody::app
