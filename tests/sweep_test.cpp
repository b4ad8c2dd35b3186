// The sweep determinism suite (the harness refactor's contract):
//
//  - RunSweep at 1, 2 and 8 threads returns ExperimentResults that are
//    field-for-field identical (exact double compare) to serial
//    RunExperiment calls, in input order.
//  - CompareManagers on the shared SubstrateSnapshot matches the
//    pre-refactor two-RunExperiment-call path exactly.
//  - ValidateConfig rejects every bad knob with the field named in the
//    std::invalid_argument message, before any substrate is built.
//
// Wall-clock diagnostic fields (round_wall moments, *_wall_seconds,
// net_stats.wall_seconds) measure real time, not simulated behaviour, and
// are the only fields excluded from the exact comparison.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "temp_dir.h"
#include "workload/harness.h"
#include "workload/sweep.h"

namespace custody::workload {
namespace {

ExperimentConfig SmallConfig(ManagerKind manager,
                             WorkloadKind kind = WorkloadKind::kWordCount,
                             std::size_t nodes = 20, std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.num_nodes = nodes;
  config.executors_per_node = 2;
  config.manager = manager;
  config.kinds = {kind};
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 5;
  config.trace.files_per_kind = 4;
  config.seed = seed;
  return config;
}

void ExpectSummariesIdentical(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.p25, b.p25);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p75, b.p75);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.max, b.max);
}

/// Exact comparison of every deterministic field of two results.
void ExpectResultsIdentical(const ExperimentResult& a,
                            const ExperimentResult& b) {
  EXPECT_EQ(a.manager_name, b.manager_name);
  {
    SCOPED_TRACE("job_locality");
    ExpectSummariesIdentical(a.job_locality, b.job_locality);
  }
  EXPECT_EQ(a.overall_task_locality_percent, b.overall_task_locality_percent);
  EXPECT_EQ(a.local_job_percent, b.local_job_percent);
  {
    SCOPED_TRACE("jct");
    ExpectSummariesIdentical(a.jct, b.jct);
  }
  {
    SCOPED_TRACE("input_stage");
    ExpectSummariesIdentical(a.input_stage, b.input_stage);
  }
  {
    SCOPED_TRACE("sched_delay");
    ExpectSummariesIdentical(a.sched_delay, b.sched_delay);
  }
  ASSERT_EQ(a.per_app_local_job_fraction.size(),
            b.per_app_local_job_fraction.size());
  for (std::size_t i = 0; i < a.per_app_local_job_fraction.size(); ++i) {
    EXPECT_EQ(a.per_app_local_job_fraction[i], b.per_app_local_job_fraction[i])
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
  // round_wall values are wall-clock; only the round count is simulated.
  EXPECT_EQ(a.round_wall.count, b.round_wall.count);
  EXPECT_EQ(a.round_yield_fraction, b.round_yield_fraction);
  EXPECT_EQ(a.net_stats.recomputes_requested, b.net_stats.recomputes_requested);
  EXPECT_EQ(a.net_stats.recomputes_run, b.net_stats.recomputes_run);
  EXPECT_EQ(a.net_stats.recomputes_batched, b.net_stats.recomputes_batched);
  EXPECT_EQ(a.net_stats.flows_scanned, b.net_stats.flows_scanned);
  EXPECT_EQ(a.net_stats.links_scanned, b.net_stats.links_scanned);
  EXPECT_EQ(a.net_stats.rounds, b.net_stats.rounds);
  EXPECT_EQ(a.net_bytes_delivered, b.net_bytes_delivered);
  EXPECT_EQ(a.cache_insertions, b.cache_insertions);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.speculative_launches, b.speculative_launches);
  EXPECT_EQ(a.speculative_wins, b.speculative_wins);
  EXPECT_EQ(a.nodes_failed, b.nodes_failed);
  EXPECT_EQ(a.launches_local, b.launches_local);
  EXPECT_EQ(a.launches_covered_busy, b.launches_covered_busy);
  EXPECT_EQ(a.launches_uncovered, b.launches_uncovered);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
}

/// A mixed grid: every manager kind, every workload, varied sizes, seeds,
/// and the cache/speculation/failure extensions.
std::vector<ExperimentConfig> MixedGrid() {
  std::vector<ExperimentConfig> grid;
  grid.push_back(SmallConfig(ManagerKind::kCustody));
  grid.push_back(SmallConfig(ManagerKind::kStandalone, WorkloadKind::kSort, 25));
  grid.push_back(SmallConfig(ManagerKind::kPool, WorkloadKind::kPageRank));
  grid.push_back(SmallConfig(ManagerKind::kOffer));
  grid.push_back(
      SmallConfig(ManagerKind::kCustody, WorkloadKind::kSort, 30, 7));
  auto cached = SmallConfig(ManagerKind::kCustody);
  cached.cache_mb_per_node = 512.0;
  cached.trace.zipf_skew = 1.2;
  grid.push_back(std::move(cached));
  auto chaotic = SmallConfig(ManagerKind::kCustody);
  chaotic.node_failures = 2;
  chaotic.failure_start = 10.0;
  chaotic.failure_interval = 15.0;
  chaotic.slow_node_fraction = 0.2;
  chaotic.speculation = true;
  grid.push_back(std::move(chaotic));
  return grid;
}

TEST(SweepDeterminism, MatchesSerialRunExperimentAtAnyThreadCount) {
  const std::vector<ExperimentConfig> grid = MixedGrid();
  std::vector<ExperimentResult> serial;
  for (const ExperimentConfig& config : grid) {
    serial.push_back(RunExperiment(config));
  }
  for (const int threads : {1, 2, 8}) {
    SweepOptions options;
    options.threads = threads;
    const std::vector<ExperimentResult> swept = RunSweep(grid, options);
    ASSERT_EQ(swept.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " config=" +
                   std::to_string(i));
      ExpectResultsIdentical(serial[i], swept[i]);
    }
  }
}

TEST(SweepDeterminism, ResultsComeBackInInputOrder) {
  std::vector<ExperimentConfig> grid;
  grid.push_back(SmallConfig(ManagerKind::kStandalone));
  grid.push_back(SmallConfig(ManagerKind::kCustody));
  grid.push_back(SmallConfig(ManagerKind::kPool));
  grid.push_back(SmallConfig(ManagerKind::kOffer));
  SweepOptions options;
  options.threads = 4;
  const auto results = RunSweep(grid, options);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].manager_name, "standalone");
  EXPECT_EQ(results[1].manager_name, "custody");
  EXPECT_EQ(results[2].manager_name, "pool");
  EXPECT_EQ(results[3].manager_name, "offer");
}

TEST(SweepDeterminism, ComparisonSweepMatchesCompareManagers) {
  std::vector<ExperimentConfig> grid;
  grid.push_back(SmallConfig(ManagerKind::kCustody));
  grid.push_back(SmallConfig(ManagerKind::kCustody, WorkloadKind::kSort, 25));
  SweepOptions options;
  options.threads = 2;
  const std::vector<Comparison> swept = RunComparisonSweep(grid, options);
  ASSERT_EQ(swept.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE("config=" + std::to_string(i));
    const Comparison direct = CompareManagers(grid[i]);
    ExpectResultsIdentical(direct.baseline, swept[i].baseline);
    ExpectResultsIdentical(direct.custody, swept[i].custody);
  }
}

TEST(SweepDeterminism, SharedSnapshotMatchesPreRefactorTwoCallPath) {
  // CompareManagers now builds the substrate snapshot once; the result
  // must stay bit-identical to setting config.manager and calling
  // RunExperiment twice (the pre-refactor path).
  ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  const Comparison shared = CompareManagers(config);
  config.manager = ManagerKind::kStandalone;
  const ExperimentResult baseline = RunExperiment(config);
  config.manager = ManagerKind::kCustody;
  const ExperimentResult custody = RunExperiment(config);
  ExpectResultsIdentical(baseline, shared.baseline);
  ExpectResultsIdentical(custody, shared.custody);
}

TEST(SweepDeterminism, SnapshotBuildIsDeterministic) {
  const ExperimentConfig config =
      SmallConfig(ManagerKind::kCustody, WorkloadKind::kSort, 25, 9);
  const SubstrateSnapshot a = SubstrateSnapshot::Build(config);
  const SubstrateSnapshot b = SubstrateSnapshot::Build(config);
  const std::vector<Submission> trace_a =
      DrainStream(a.make_submission_stream());
  const std::vector<Submission> trace_b =
      DrainStream(b.make_submission_stream());
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].time, trace_b[i].time);
    EXPECT_EQ(trace_a[i].app_index, trace_b[i].app_index);
    EXPECT_EQ(trace_a[i].kind, trace_b[i].kind);
    EXPECT_EQ(trace_a[i].file_index, trace_b[i].file_index);
  }
  ASSERT_EQ(a.dataset_plans().size(), b.dataset_plans().size());
  for (std::size_t k = 0; k < a.dataset_plans().size(); ++k) {
    ASSERT_EQ(a.dataset_plans()[k].files.size(),
              b.dataset_plans()[k].files.size());
    for (std::size_t f = 0; f < a.dataset_plans()[k].files.size(); ++f) {
      EXPECT_EQ(a.dataset_plans()[k].files[f].bytes,
                b.dataset_plans()[k].files[f].bytes);
      EXPECT_EQ(a.dataset_plans()[k].files[f].path,
                b.dataset_plans()[k].files[f].path);
    }
  }
}

TEST(Sweep, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(RunSweep({}).empty());
  EXPECT_TRUE(RunComparisonSweep({}).empty());
}

TEST(Sweep, PropagatesRunFailuresByInputIndex) {
  // Validation happens before any thread spawns: a bad config anywhere in
  // the grid throws without running the good ones.
  std::vector<ExperimentConfig> grid;
  grid.push_back(SmallConfig(ManagerKind::kCustody));
  grid.push_back(SmallConfig(ManagerKind::kCustody));
  grid[1].num_nodes = 0;
  SweepOptions options;
  options.threads = 2;
  EXPECT_THROW(RunSweep(grid, options), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RunControl: observing a run never changes it; cancel stops it.
// ---------------------------------------------------------------------------

TEST(RunControl, ObserverAttachedIsBitIdenticalToPlainRun) {
  // The svc layer polls progress while an experiment runs.  The contract:
  // attaching a RunControl with an on_progress callback produces exactly
  // the result the no-control path produces, for every manager.
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kStandalone, ManagerKind::kPool,
        ManagerKind::kOffer}) {
    SCOPED_TRACE(ManagerName(manager));
    const ExperimentConfig config = SmallConfig(manager);
    const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
    const ExperimentResult plain = RunOnSnapshot(snapshot, manager);
    RunControl control;
    control.progress_every = 64;  // small batches: many callbacks
    std::uint64_t callbacks = 0;
    RunProgress last;
    control.on_progress = [&](const RunProgress& p) {
      ++callbacks;
      // Progress is monotone in events and sim time.
      EXPECT_GE(p.events_processed, last.events_processed);
      EXPECT_GE(p.sim_time, last.sim_time);
      last = p;
    };
    const ExperimentResult observed = RunOnSnapshot(snapshot, manager,
                                                    &control);
    EXPECT_GT(callbacks, 0u);
    EXPECT_EQ(last.events_processed, observed.events_processed);
    EXPECT_EQ(last.jobs_completed, observed.jobs_completed);
    ExpectResultsIdentical(plain, observed);
  }
}

TEST(RunControl, ObserverIsBitIdenticalOnCheckpointingRuns) {
  // The checkpoint loop is a separate code path in RunOnSnapshot; pin the
  // observer contract there too.
  ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  config.checkpoint.every = 25.0;
  const testing_support::FreshTempDir scratch("run-control-checkpoints");
  config.checkpoint.directory = scratch.path();
  const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
  const ExperimentResult plain = RunOnSnapshot(snapshot, config.manager);
  RunControl control;
  std::uint64_t callbacks = 0;
  control.on_progress = [&](const RunProgress&) { ++callbacks; };
  const ExperimentResult observed =
      RunOnSnapshot(snapshot, config.manager, &control);
  EXPECT_GT(callbacks, 0u);
  ExpectResultsIdentical(plain, observed);
}

TEST(RunControl, CancelUpFrontThrowsRunCancelled) {
  const ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  RunControl control;
  control.request_cancel();
  EXPECT_THROW(RunExperiment(config, &control), RunCancelled);
}

TEST(RunControl, CancelFromProgressCallbackStopsMidRun) {
  const ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  const ExperimentResult full = RunExperiment(config);
  RunControl control;
  control.progress_every = 64;
  std::uint64_t events_at_cancel = 0;
  control.on_progress = [&](const RunProgress& p) {
    events_at_cancel = p.events_processed;
    control.request_cancel();
  };
  EXPECT_THROW(RunExperiment(config, &control), RunCancelled);
  // The cancel landed at the first batch boundary, well before the end.
  EXPECT_GT(events_at_cancel, 0u);
  EXPECT_LT(events_at_cancel, full.events_processed);
}

// ---------------------------------------------------------------------------
// ValidateConfig
// ---------------------------------------------------------------------------

void ExpectInvalid(ExperimentConfig config, const std::string& field) {
  try {
    ValidateConfig(config);
    FAIL() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << "message \"" << error.what() << "\" does not name " << field;
  }
}

TEST(ValidateConfig, AcceptsTheDefaults) {
  EXPECT_NO_THROW(ValidateConfig(ExperimentConfig{}));
  EXPECT_NO_THROW(ValidateConfig(SmallConfig(ManagerKind::kPool)));
}

TEST(ValidateConfig, RejectsEveryBadKnobWithTheFieldNamed) {
  const ExperimentConfig good = SmallConfig(ManagerKind::kCustody);
  auto with = [&good](auto mutate) {
    ExperimentConfig config = good;
    mutate(config);
    return config;
  };
  ExpectInvalid(with([](auto& c) { c.num_nodes = 0; }), "num_nodes");
  ExpectInvalid(with([](auto& c) { c.executors_per_node = 0; }),
                "executors_per_node");
  ExpectInvalid(with([](auto& c) { c.executors_per_node = -3; }),
                "executors_per_node");
  ExpectInvalid(with([](auto& c) { c.disk_mbps = -1.0; }), "disk_mbps");
  ExpectInvalid(with([](auto& c) { c.uplink_gbps = 0.0; }), "uplink_gbps");
  ExpectInvalid(with([](auto& c) { c.downlink_gbps = -2.0; }),
                "downlink_gbps");
  ExpectInvalid(with([](auto& c) { c.core_gbps = -1.0; }), "core_gbps");
  ExpectInvalid(with([](auto& c) { c.block_mb = 0.0; }), "block_mb");
  ExpectInvalid(with([](auto& c) { c.replication = 0; }), "replication");
  ExpectInvalid(with([](auto& c) { c.cache_mb_per_node = -1.0; }),
                "cache_mb_per_node");
  ExpectInvalid(with([](auto& c) { c.dataset.hot_fraction = 1.5; }),
                "hot_fraction");
  ExpectInvalid(
      with([](auto& c) { c.dataset.popularity_extra_replicas = -1; }),
      "popularity_extra_replicas");
  ExpectInvalid(with([](auto& c) { c.shuffle_fan_in = 0; }), "shuffle_fan_in");
  ExpectInvalid(with([](auto& c) {
                  c.speculation = true;
                  c.speculation_multiplier = 1.0;
                }),
                "speculation_multiplier");
  ExpectInvalid(with([](auto& c) { c.slow_node_fraction = -0.1; }),
                "slow_node_fraction");
  ExpectInvalid(with([](auto& c) { c.slow_node_fraction = 1.1; }),
                "slow_node_fraction");
  ExpectInvalid(with([](auto& c) { c.slow_node_factor = 0.0; }),
                "slow_node_factor");
  ExpectInvalid(with([](auto& c) { c.node_failures = -1; }), "node_failures");
  ExpectInvalid(with([](auto& c) {
                  c.node_failures = 1;
                  c.failure_start = -5.0;
                }),
                "failure_start");
  ExpectInvalid(with([](auto& c) {
                  c.node_failures = 3;
                  c.failure_interval = 0.0;
                }),
                "failure_interval");
  ExpectInvalid(with([](auto& c) { c.kinds.clear(); }), "kinds");
  ExpectInvalid(with([](auto& c) { c.trace.num_apps = 0; }), "num_apps");
  ExpectInvalid(with([](auto& c) { c.trace.num_apps = -4; }), "num_apps");
  ExpectInvalid(with([](auto& c) { c.trace.jobs_per_app = 0; }),
                "jobs_per_app");
  ExpectInvalid(with([](auto& c) { c.trace.mean_interarrival = 0.0; }),
                "mean_interarrival");
  ExpectInvalid(with([](auto& c) { c.trace.zipf_skew = -0.5; }), "zipf_skew");
  ExpectInvalid(with([](auto& c) { c.trace.files_per_kind = 0; }),
                "files_per_kind");
  ExpectInvalid(with([](auto& c) { c.params.pagerank_shuffle_ratio = -0.5; }),
                "params.pagerank_shuffle_ratio");
  ExpectInvalid(with([](auto& c) { c.params.pagerank_iterations = -1; }),
                "params.pagerank_iterations");
  ExpectInvalid(with([](auto& c) { c.params.sort_shuffle_ratio = 0.0; }),
                "params.sort_shuffle_ratio");
}

TEST(ValidateConfig, RejectsBadSteadyStateKnobsWithTheFieldNamed) {
  const ExperimentConfig good = SmallConfig(ManagerKind::kCustody);
  auto with = [&good](auto mutate) {
    ExperimentConfig config = good;
    mutate(config);
    return config;
  };
  // The steady-state block validates whether or not the mode is enabled, so
  // a sweep grid with a typoed steady field fails fast.
  ExpectInvalid(with([](auto& c) { c.steady.warmup = -1.0; }),
                "steady.warmup");
  ExpectInvalid(with([](auto& c) { c.steady.diurnal_amplitude = -0.2; }),
                "steady.diurnal_amplitude");
  ExpectInvalid(with([](auto& c) { c.steady.diurnal_amplitude = 1.0; }),
                "steady.diurnal_amplitude");
  ExpectInvalid(with([](auto& c) {
                  c.steady.diurnal_amplitude = 0.5;
                  c.steady.diurnal_period = 0.0;
                }),
                "steady.diurnal_period");
  // Retiring jobs while exact metrics keep per-job records would not bound
  // memory — the combination is rejected, not silently accepted.
  ExpectInvalid(with([](auto& c) {
                  c.steady.enabled = true;
                  c.steady.retire_jobs = true;
                  c.steady.streaming_metrics = false;
                }),
                "steady.retire_jobs");
  // Zero arrival rate is caught by the shared trace validation.
  ExpectInvalid(with([](auto& c) {
                  c.steady.enabled = true;
                  c.trace.mean_interarrival = 0.0;
                }),
                "mean_interarrival");
  // The steady defaults themselves are valid, enabled or not.
  EXPECT_NO_THROW(ValidateConfig(with([](auto& c) {
    c.steady.enabled = true;
  })));
  EXPECT_NO_THROW(ValidateConfig(with([](auto& c) {
    c.steady.enabled = true;
    c.steady.diurnal_amplitude = 0.5;
    c.steady.warmup = 100.0;
  })));
}

// Zero compute or iterations makes an instant stage and the run completes,
// so the params ranges admit 0 there (a shuffle ratio must be positive).
TEST(ValidateConfig, AcceptsZeroComputeCostsAndIterations) {
  ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  config.params.pagerank_iterations = 0;
  config.params.pagerank_compute_per_byte = 0.0;
  config.params.pagerank_iter_compute_per_byte = 0.0;
  config.params.wordcount_compute_per_byte = 0.0;
  config.params.wordcount_reduce_secs = 0.0;
  config.params.sort_compute_per_byte = 0.0;
  config.params.sort_reduce_compute_per_byte = 0.0;
  EXPECT_NO_THROW(ValidateConfig(config));
}

TEST(ValidateConfig, RunExperimentValidatesUpFront) {
  ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  config.replication = 0;
  EXPECT_THROW(RunExperiment(config), std::invalid_argument);
  config = SmallConfig(ManagerKind::kCustody);
  config.trace.num_apps = -1;
  EXPECT_THROW(RunExperiment(config), std::invalid_argument);
}

}  // namespace
}  // namespace custody::workload
