// The steady-state streaming engine's contract:
//
//  - SubmissionStream is deterministic: two streams over the same snapshot
//    emit the identical schedule, in non-decreasing time order, with exactly
//    jobs_per_app submissions per application.
//  - The lazy pump reproduces golden outcome digests for every manager kind
//    and two seeds.  They were recorded while a sub-mode that drained the
//    stream up front and posted every submission still ran beside the pump
//    and matched it bit for bit: generating submissions one event ahead
//    changes no scheduling decision.
//  - Retirement + streaming metrics preserve every deterministic field
//    (makespan, event and launch counters, locality percentages) and keep
//    summary counts/moments matching the exact-metrics run; P² percentiles
//    stay within the documented tolerance.
//  - Retired jobs are destroyed through the pool: jobs_retired equals
//    jobs_completed and finished jobs are no longer reachable.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "outcome_digest.h"
#include "workload/harness.h"

namespace custody::workload {
namespace {

ExperimentConfig SteadyConfig(ManagerKind manager, std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.num_nodes = 20;
  config.executors_per_node = 2;
  config.manager = manager;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 3;
  config.trace.jobs_per_app = 12;
  config.trace.mean_interarrival = 8.0;
  config.trace.files_per_kind = 6;
  config.seed = seed;
  config.steady.enabled = true;
  config.steady.retire_jobs = false;
  config.steady.streaming_metrics = false;
  return config;
}

/// Every deterministic scalar of the result — the scheduling decisions.
/// Excludes the summaries, which streaming metrics only estimate.
void ExpectDecisionsIdentical(const ExperimentResult& a,
                              const ExperimentResult& b) {
  EXPECT_EQ(a.manager_name, b.manager_name);
  EXPECT_EQ(a.overall_task_locality_percent, b.overall_task_locality_percent);
  EXPECT_EQ(a.local_job_percent, b.local_job_percent);
  ASSERT_EQ(a.per_app_local_job_fraction.size(),
            b.per_app_local_job_fraction.size());
  for (std::size_t i = 0; i < a.per_app_local_job_fraction.size(); ++i) {
    EXPECT_EQ(a.per_app_local_job_fraction[i],
              b.per_app_local_job_fraction[i])
        << "per_app_local_job_fraction[" << i << "]";
  }
  EXPECT_EQ(a.manager_stats.allocation_rounds,
            b.manager_stats.allocation_rounds);
  EXPECT_EQ(a.manager_stats.executors_granted,
            b.manager_stats.executors_granted);
  EXPECT_EQ(a.manager_stats.executors_released,
            b.manager_stats.executors_released);
  EXPECT_EQ(a.manager_stats.offers_made, b.manager_stats.offers_made);
  EXPECT_EQ(a.manager_stats.offers_rejected, b.manager_stats.offers_rejected);
  EXPECT_EQ(a.manager_stats.executors_scanned,
            b.manager_stats.executors_scanned);
  EXPECT_EQ(a.manager_stats.apps_considered, b.manager_stats.apps_considered);
  EXPECT_EQ(a.round_yield_fraction, b.round_yield_fraction);
  EXPECT_EQ(a.net_stats.recomputes_run, b.net_stats.recomputes_run);
  EXPECT_EQ(a.net_stats.rounds, b.net_stats.rounds);
  EXPECT_EQ(a.net_bytes_delivered, b.net_bytes_delivered);
  EXPECT_EQ(a.launches_local, b.launches_local);
  EXPECT_EQ(a.launches_covered_busy, b.launches_covered_busy);
  EXPECT_EQ(a.launches_uncovered, b.launches_uncovered);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.peak_live_tasks, b.peak_live_tasks);
}

// ---------------------------------------------------------------------------
// SubmissionStream
// ---------------------------------------------------------------------------

TEST(SubmissionStream, DrainIsDeterministicSortedAndComplete) {
  const SubstrateSnapshot snapshot =
      SubstrateSnapshot::Build(SteadyConfig(ManagerKind::kCustody, 9));
  const std::vector<Submission> a =
      DrainStream(snapshot.make_submission_stream());
  const std::vector<Submission> b =
      DrainStream(snapshot.make_submission_stream());
  ASSERT_EQ(a.size(), 3u * 12u);
  ASSERT_EQ(a.size(), b.size());
  std::vector<int> per_app(3, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].app_index, b[i].app_index);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].file_index, b[i].file_index);
    if (i > 0) {
      EXPECT_GE(a[i].time, a[i - 1].time);
    }
    EXPECT_GT(a[i].time, 0.0);
    ++per_app[static_cast<std::size_t>(a[i].app_index)];
  }
  for (const int n : per_app) EXPECT_EQ(n, 12);
}

TEST(SubmissionStream, LazyConsumptionMatchesDrain) {
  const SubstrateSnapshot snapshot =
      SubstrateSnapshot::Build(SteadyConfig(ManagerKind::kCustody, 3));
  const std::vector<Submission> drained =
      DrainStream(snapshot.make_submission_stream());
  SubmissionStream lazy = snapshot.make_submission_stream();
  EXPECT_EQ(lazy.total_jobs(), drained.size());
  for (const Submission& expected : drained) {
    ASSERT_FALSE(lazy.done());
    EXPECT_EQ(lazy.peek().time, expected.time);
    const Submission got = lazy.next();
    EXPECT_EQ(got.time, expected.time);
    EXPECT_EQ(got.app_index, expected.app_index);
    EXPECT_EQ(got.kind, expected.kind);
    EXPECT_EQ(got.file_index, expected.file_index);
  }
  EXPECT_TRUE(lazy.done());
  EXPECT_EQ(lazy.emitted(), drained.size());
}

TEST(SubmissionStream, DiurnalModulationReshapesArrivalsDeterministically) {
  ExperimentConfig flat = SteadyConfig(ManagerKind::kCustody, 11);
  ExperimentConfig wavy = flat;
  wavy.steady.diurnal_amplitude = 0.8;
  wavy.steady.diurnal_period = 60.0;
  const std::vector<Submission> a =
      DrainStream(SubstrateSnapshot::Build(flat).make_submission_stream());
  const std::vector<Submission> b =
      DrainStream(SubstrateSnapshot::Build(wavy).make_submission_stream());
  const std::vector<Submission> b2 =
      DrainStream(SubstrateSnapshot::Build(wavy).make_submission_stream());
  ASSERT_EQ(a.size(), b.size());
  // The modulation consumes the same underlying draws, so only times move.
  bool any_time_differs = false;
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i].time, b2[i].time);
    if (i > 0) {
      EXPECT_GE(b[i].time, b[i - 1].time);
    }
    if (a[i].time != b[i].time) any_time_differs = true;
  }
  EXPECT_TRUE(any_time_differs);
}

// ---------------------------------------------------------------------------
// The lazy pump's outcomes, pinned
// ---------------------------------------------------------------------------

// The lazy pump's outcome per manager and seed, recorded while the
// drained-up-front sub-mode still reproduced it bit for bit.
TEST(SteadyState, LazyPumpMatchesPinnedDigestsForEveryManager) {
  // clang-format off
  const std::map<std::string, std::uint64_t> kPinned = {
      {"custody/42", 0x964d5ef78de6921fULL},
      {"custody/1234", 0x8bcb8fd2f19bc69fULL},
      {"standalone/42", 0xa7a05dd12fedd4f4ULL},
      {"standalone/1234", 0xc6ebc7ffe42b4be5ULL},
      {"pool/42", 0xc55bc0b978ef3db0ULL},
      {"pool/1234", 0x9d201873e52e0383ULL},
      {"offer/42", 0xfa909ae611418572ULL},
      {"offer/1234", 0xd8a814d453c8be90ULL},
  };
  // clang-format on
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kStandalone, ManagerKind::kPool,
        ManagerKind::kOffer}) {
    for (const std::uint64_t seed : {42u, 1234u}) {
      const std::string name =
          std::string(ManagerName(manager)) + "/" + std::to_string(seed);
      const ExperimentResult result = RunExperiment(SteadyConfig(manager, seed));
      EXPECT_EQ(result.jobs_retired, 0u) << name;
      const std::uint64_t actual = OutcomeDigest(result);
      const auto it = kPinned.find(name);
      EXPECT_TRUE(it != kPinned.end() && it->second == actual)
          << "{\"" << name << "\", " << Hex(actual) << "},";
    }
  }
}

// ---------------------------------------------------------------------------
// Retirement + streaming metrics vs exact metrics
// ---------------------------------------------------------------------------

void ExpectStreamingSummaryMatches(const Summary& exact,
                                   const Summary& streaming) {
  EXPECT_EQ(exact.count, streaming.count);
  // Moments come from a Welford accumulator instead of a sorted vector:
  // equal up to floating-point association, so compare tightly but not
  // bitwise.
  const double scale =
      std::max({1.0, std::abs(exact.mean), std::abs(exact.max)});
  EXPECT_NEAR(exact.mean, streaming.mean, 1e-9 * scale);
  EXPECT_NEAR(exact.stddev, streaming.stddev, 1e-6 * scale);
  EXPECT_EQ(exact.min, streaming.min);
  EXPECT_EQ(exact.max, streaming.max);
  // P² percentile estimates: within the sample range, and within a
  // generous fraction of it at these small sample counts — with only ~36
  // samples the markers have barely converged (the dedicated
  // streaming_stats tests pin the few-percent large-N accuracy contract).
  const double range = exact.max - exact.min;
  const std::pair<double, double> estimates[] = {
      {streaming.p25, exact.p25},
      {streaming.median, exact.median},
      {streaming.p75, exact.p75},
      {streaming.p95, exact.p95},
      {streaming.p99, exact.p99},
  };
  for (const auto& [est, ref] : estimates) {
    EXPECT_GE(est, exact.min - 1e-12);
    EXPECT_LE(est, exact.max + 1e-12);
    EXPECT_NEAR(est, ref, 0.5 * range + 1e-12);
  }
}

TEST(SteadyState, RetirementAndStreamingPreserveSchedulingDecisions) {
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kStandalone}) {
    SCOPED_TRACE(std::string("manager=") + ManagerName(manager));
    // The exact-metrics run keeps every job and record: the reference.
    const ExperimentConfig reference = SteadyConfig(manager);
    ExperimentConfig streaming = SteadyConfig(manager);
    streaming.steady.retire_jobs = true;
    streaming.steady.streaming_metrics = true;
    const ExperimentResult a = RunExperiment(reference);
    const ExperimentResult b = RunExperiment(streaming);
    ExpectDecisionsIdentical(a, b);
    {
      SCOPED_TRACE("job_locality");
      ExpectStreamingSummaryMatches(a.job_locality, b.job_locality);
    }
    {
      SCOPED_TRACE("jct");
      ExpectStreamingSummaryMatches(a.jct, b.jct);
    }
    {
      SCOPED_TRACE("input_stage");
      ExpectStreamingSummaryMatches(a.input_stage, b.input_stage);
    }
    {
      SCOPED_TRACE("sched_delay");
      ExpectStreamingSummaryMatches(a.sched_delay, b.sched_delay);
    }
    EXPECT_EQ(b.jobs_retired, b.jobs_completed);
    EXPECT_EQ(b.jobs_completed, 3u * 12u);
    EXPECT_GT(b.peak_live_tasks, 0u);
  }
}

TEST(SteadyState, WarmupDiscardsEarlySamplesButNotMakespan) {
  const ExperimentConfig full = SteadyConfig(ManagerKind::kCustody);
  const ExperimentResult all = RunExperiment(full);
  ASSERT_GT(all.jct.count, 0u);

  ExperimentConfig trimmed = full;
  trimmed.steady.warmup = all.makespan / 2.0;
  const ExperimentResult warm = RunExperiment(trimmed);
  // Warm-up changes which jobs enter the figures, never the simulation.
  EXPECT_EQ(warm.makespan, all.makespan);
  EXPECT_EQ(warm.events_processed, all.events_processed);
  EXPECT_EQ(warm.jobs_completed, all.jobs_completed);
  EXPECT_LT(warm.jct.count, all.jct.count);
  EXPECT_GT(warm.jct.count, 0u);

  // Streaming mode applies the identical record-time filter: same count.
  ExperimentConfig streaming_trimmed = SteadyConfig(ManagerKind::kCustody);
  streaming_trimmed.steady.warmup = trimmed.steady.warmup;
  streaming_trimmed.steady.retire_jobs = true;
  streaming_trimmed.steady.streaming_metrics = true;
  const ExperimentResult warm_streaming = RunExperiment(streaming_trimmed);
  EXPECT_EQ(warm_streaming.jct.count, warm.jct.count);
  EXPECT_EQ(warm_streaming.makespan, warm.makespan);
}

TEST(SteadyState, DiurnalRunCompletesAllJobsUnderRetirement) {
  ExperimentConfig config = SteadyConfig(ManagerKind::kCustody, 5);
  config.steady.retire_jobs = true;
  config.steady.streaming_metrics = true;
  config.steady.diurnal_amplitude = 0.6;
  config.steady.diurnal_period = 120.0;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.jobs_completed, 3u * 12u);
  EXPECT_EQ(result.jobs_retired, result.jobs_completed);
  EXPECT_EQ(result.jct.count, result.jobs_completed);
}

// The kick walk's visits follow launches, not executors held: each visit
// launches (a primary or a clone), is its kick's first null verdict, or
// directly follows a launch, so kick_probes <= 2 * launches + kicks.  The
// standalone run holds every executor, most of them free while jobs wait;
// the speculation run offers free slots to straggler clones.
TEST(SteadyState, KickProbesAreBoundedByLaunches) {
  ExperimentConfig standalone = SteadyConfig(ManagerKind::kStandalone);
  standalone.num_nodes = 1000;
  standalone.trace.num_apps = 4;
  standalone.trace.jobs_per_app = 25;
  standalone.trace.mean_interarrival = 1.6;
  standalone.trace.files_per_kind = 32;
  ExperimentConfig spec = standalone;
  spec.manager = ManagerKind::kCustody;
  spec.speculation = true;
  spec.slow_node_fraction = 0.1;
  for (const ExperimentConfig& config : {standalone, spec}) {
    SCOPED_TRACE(config.speculation ? "speculation" : "standalone");
    const ExperimentResult result = RunExperiment(config);
    const app::WorkCounters& work = result.app_work;
    EXPECT_EQ(result.jobs_completed, 100u);
    EXPECT_GT(work.launches, 0u);
    EXPECT_LE(work.kick_probes, 2 * work.launches + work.kicks);
    if (config.speculation) {
      EXPECT_GT(result.speculative_launches, 0u);
    }
  }
}

}  // namespace
}  // namespace custody::workload
