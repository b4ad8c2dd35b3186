// Tests for the metrics collector and its figure-level summaries, in both
// exact-record and constant-memory streaming modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/stats.h"
#include "metrics/metrics.h"

namespace custody::metrics {
namespace {

JobRecord Job(AppId app, JobId id, double submit, double input_done,
              double finish, int tasks, int local) {
  JobRecord r;
  r.app = app;
  r.job = id;
  r.submit_time = submit;
  r.input_stage_finish = input_done;
  r.finish_time = finish;
  r.input_tasks = tasks;
  r.local_input_tasks = local;
  return r;
}

TaskRecord Task(bool input, bool local, double ready, double launch,
                double finish) {
  TaskRecord r;
  r.is_input = input;
  r.local = local;
  r.ready_time = ready;
  r.launch_time = launch;
  r.finish_time = finish;
  return r;
}

TEST(JobRecord, DerivedQuantities) {
  const auto r = Job(AppId(0), JobId(0), 10.0, 14.0, 20.0, 4, 3);
  EXPECT_DOUBLE_EQ(r.completion_time(), 10.0);
  EXPECT_DOUBLE_EQ(r.input_stage_duration(), 4.0);
  EXPECT_DOUBLE_EQ(r.locality_percent(), 75.0);
  EXPECT_FALSE(r.perfectly_local());
  EXPECT_TRUE(Job(AppId(0), JobId(1), 0, 1, 2, 4, 4).perfectly_local());
}

TEST(TaskRecord, DerivedQuantities) {
  const auto r = Task(true, true, 1.0, 3.0, 7.0);
  EXPECT_DOUBLE_EQ(r.scheduler_delay(), 2.0);
  EXPECT_DOUBLE_EQ(r.duration(), 4.0);
}

TEST(Metrics, PerJobLocality) {
  MetricsCollector m;
  m.record_job(Job(AppId(0), JobId(0), 0, 1, 2, 4, 4));
  m.record_job(Job(AppId(0), JobId(1), 0, 1, 2, 4, 2));
  const auto locality = m.per_job_locality_percent();
  EXPECT_EQ(locality, (std::vector<double>{100.0, 50.0}));
  EXPECT_DOUBLE_EQ(m.overall_input_locality_percent(), 75.0);
  EXPECT_DOUBLE_EQ(m.local_job_percent(), 50.0);
}

TEST(Metrics, EmptyCollectorIsSafe) {
  MetricsCollector m;
  EXPECT_TRUE(m.per_job_locality_percent().empty());
  EXPECT_DOUBLE_EQ(m.overall_input_locality_percent(), 0.0);
  EXPECT_DOUBLE_EQ(m.local_job_percent(), 0.0);
  EXPECT_DOUBLE_EQ(m.makespan(), 0.0);
}

TEST(Metrics, CompletionAndInputStageSeries) {
  MetricsCollector m;
  m.record_job(Job(AppId(0), JobId(0), 0, 3, 10, 2, 2));
  m.record_job(Job(AppId(1), JobId(1), 5, 9, 25, 2, 2));
  EXPECT_EQ(m.job_completion_times(), (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(m.input_stage_durations(), (std::vector<double>{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(m.makespan(), 25.0);
}

TEST(Metrics, SchedulerDelaysOnlyInputTasks) {
  MetricsCollector m;
  m.record_task(Task(true, true, 0.0, 1.0, 2.0));
  m.record_task(Task(false, false, 0.0, 5.0, 6.0));  // downstream: excluded
  m.record_task(Task(true, false, 2.0, 2.5, 9.0));
  const auto delays = m.input_scheduler_delays();
  EXPECT_EQ(delays, (std::vector<double>{1.0, 0.5}));
}

TEST(Metrics, PerAppLocalJobFraction) {
  MetricsCollector m;
  m.record_job(Job(AppId(0), JobId(0), 0, 1, 2, 2, 2));  // local
  m.record_job(Job(AppId(0), JobId(1), 0, 1, 2, 2, 1));  // not local
  m.record_job(Job(AppId(1), JobId(2), 0, 1, 2, 2, 2));  // local
  const auto fractions = m.per_app_local_job_fraction(3);
  ASSERT_EQ(fractions.size(), 3u);
  EXPECT_DOUBLE_EQ(fractions[0], 0.5);
  EXPECT_DOUBLE_EQ(fractions[1], 1.0);
  EXPECT_DOUBLE_EQ(fractions[2], 0.0);  // no jobs -> 0
}

TEST(Metrics, RawRecordsAccessible) {
  MetricsCollector m;
  m.record_task(Task(true, true, 0, 0, 1));
  m.record_job(Job(AppId(0), JobId(0), 0, 1, 2, 1, 1));
  EXPECT_EQ(m.tasks().size(), 1u);
  EXPECT_EQ(m.jobs().size(), 1u);
}

// ---------------------------------------------------------------------------
// Streaming mode
// ---------------------------------------------------------------------------

TEST(MetricsStreaming, SummariesMatchExactModeOnTheSameRecords) {
  MetricsCollector exact;
  MetricsCollector streaming;
  streaming.enable_streaming();
  EXPECT_TRUE(streaming.streaming());
  for (int i = 0; i < 200; ++i) {
    const double submit = i * 1.5;
    const auto job = Job(AppId(i % 3), JobId(i), submit, submit + 2.0,
                         submit + 4.0 + (i % 7), 4, i % 5);
    exact.record_job(job);
    streaming.record_job(job);
    const auto task = Task(true, i % 2 == 0, submit, submit + 0.25 * (i % 4),
                           submit + 3.0);
    exact.record_task(task);
    streaming.record_task(task);
  }
  // Raw records stay empty in streaming mode; scalar counters agree exactly.
  EXPECT_TRUE(streaming.jobs().empty());
  EXPECT_TRUE(streaming.tasks().empty());
  EXPECT_EQ(streaming.jobs_recorded(), exact.jobs_recorded());
  EXPECT_EQ(streaming.makespan(), exact.makespan());
  EXPECT_EQ(streaming.overall_input_locality_percent(),
            exact.overall_input_locality_percent());
  EXPECT_EQ(streaming.local_job_percent(), exact.local_job_percent());
  EXPECT_EQ(streaming.per_app_local_job_fraction(3),
            exact.per_app_local_job_fraction(3));

  const Summary e = exact.jct_summary();
  const Summary s = streaming.jct_summary();
  EXPECT_EQ(s.count, e.count);
  EXPECT_NEAR(s.mean, e.mean, 1e-9 * e.mean);
  EXPECT_EQ(s.min, e.min);
  EXPECT_EQ(s.max, e.max);
  EXPECT_NEAR(s.median, e.median, 0.05 * (e.max - e.min));
  const Summary ed = exact.sched_delay_summary();
  const Summary sd = streaming.sched_delay_summary();
  EXPECT_EQ(sd.count, ed.count);
  EXPECT_NEAR(sd.mean, ed.mean, 1e-9 * (ed.mean + 1.0));
}

TEST(MetricsStreaming, EnableAfterRecordsThrows) {
  MetricsCollector m;
  m.record_job(Job(AppId(0), JobId(0), 0, 1, 2, 1, 1));
  EXPECT_THROW(m.enable_streaming(), std::logic_error);
}

TEST(MetricsStreaming, WarmupFiltersIdenticallyInBothModes) {
  MetricsCollector exact;
  MetricsCollector streaming;
  exact.set_warmup(50.0);
  streaming.set_warmup(50.0);
  streaming.enable_streaming();
  for (int i = 0; i < 100; ++i) {
    const auto job =
        Job(AppId(0), JobId(i), /*submit=*/i, i + 1.0, i + 2.0, 2, 2);
    exact.record_job(job);
    streaming.record_job(job);
  }
  // Jobs submitted at t in [50, 99] survive; makespan covers everything.
  EXPECT_EQ(exact.jobs_recorded(), 50u);
  EXPECT_EQ(streaming.jobs_recorded(), 50u);
  EXPECT_EQ(exact.jct_summary().count, 50u);
  EXPECT_EQ(streaming.jct_summary().count, 50u);
  EXPECT_DOUBLE_EQ(exact.makespan(), 101.0);
  EXPECT_DOUBLE_EQ(streaming.makespan(), 101.0);
}

// ---------------------------------------------------------------------------
// 64-bit counter widening (large-horizon overflow regression)
// ---------------------------------------------------------------------------

TEST(Metrics, InputTaskTotalsAccumulatePast32Bits) {
  MetricsCollector m;
  m.enable_streaming();
  // 3 jobs × ~1.43e9 input tasks pushes the task totals past 2^32 without
  // looping billions of times.  Two jobs fully local, one fully remote: the
  // exact 2/3 ratio survives only if neither total wrapped (a 32-bit wrap
  // of the 3-job total leaves ~2 tasks and a nonsense percentage).
  const int tasks_per_job = 1'431'655'766;  // > 2^32 / 3
  m.record_job(Job(AppId(0), JobId(0), 0.0, 1.0, 2.0, tasks_per_job,
                   tasks_per_job));
  m.record_job(Job(AppId(0), JobId(1), 0.0, 1.0, 2.0, tasks_per_job,
                   tasks_per_job));
  m.record_job(Job(AppId(0), JobId(2), 0.0, 1.0, 2.0, tasks_per_job, 0));
  const std::uint64_t total = 3u * static_cast<std::uint64_t>(tasks_per_job);
  EXPECT_GT(total, std::uint64_t{std::numeric_limits<std::uint32_t>::max()});
  EXPECT_DOUBLE_EQ(m.overall_input_locality_percent(), 100.0 * 2.0 / 3.0);
  EXPECT_EQ(m.jobs_recorded(), 3u);
}

}  // namespace
}  // namespace custody::metrics
