// Equivalence suite for the demand-driven allocation path (the PR-7
// contract): RunExperiment with allocator.demand_driven = true (persistent
// cluster idle index, AllocateOnIndex round views, skip triggers in the
// custody and offer managers, indexed picks in standalone/pool) must
// produce results field-for-field identical — exact double compare — to
// the seed's rebuild-per-round reference path, for every manager, every
// scheduler policy, and across many seeds, including cache / speculation /
// failure / steady-state variants that exercise the index's fail_node and
// release churn.
//
// Excluded fields, and why each is legitimately different:
//  * wall-clock diagnostics — measure real time, not simulated behaviour
//    (same contract as sweep_test.cpp / dispatch_equivalence_test.cpp);
//  * executors_scanned — the demand-driven path's whole point is scanning
//    fewer candidates (early-outs, skipped rounds); we assert <= instead;
//  * demand_apps / demanded_tasks / demands_saturated / rounds_skipped —
//    skipped rounds never compute their input sizes, so the reference path
//    (which always runs the allocator) accumulates more.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/harness.h"

namespace custody::workload {
namespace {

ExperimentConfig BaseConfig(ManagerKind manager, app::SchedulerKind kind,
                            std::uint64_t seed) {
  ExperimentConfig config;
  config.num_nodes = 16;
  config.executors_per_node = 2;
  config.manager = manager;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 4;
  config.trace.files_per_kind = 3;
  config.scheduler.kind = kind;
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

/// Exact comparison of every deterministic field of two results (see the
/// header comment for the excluded diagnostics).
void ExpectResultsIdentical(const ExperimentResult& demand_driven,
                            const ExperimentResult& reference) {
  const ExperimentResult& a = demand_driven;
  const ExperimentResult& b = reference;
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
  // The demand-driven path must do no MORE candidate work than the
  // reference — strictly less whenever any round skipped or early-outed.
  EXPECT_LE(a.manager_stats.executors_scanned,
            b.manager_stats.executors_scanned);
  EXPECT_EQ(a.manager_stats.apps_considered, b.manager_stats.apps_considered);
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
  EXPECT_EQ(a.jobs_retired, b.jobs_retired);
  EXPECT_EQ(a.peak_live_tasks, b.peak_live_tasks);
  // The reference path never skips.
  EXPECT_EQ(b.manager_stats.rounds_skipped, 0u);
}

/// Runs `config` once demand-driven and once on the rebuild-per-round
/// reference and demands bit-identical simulated behaviour.  Returns the
/// demand-driven result so callers can check a variant is not vacuous.
ExperimentResult ExpectPathsAgree(ExperimentConfig config) {
  config.allocator.demand_driven = true;
  const ExperimentResult demand_driven = RunExperiment(config);
  config.allocator.demand_driven = false;
  const ExperimentResult reference = RunExperiment(config);
  ExpectResultsIdentical(demand_driven, reference);
  return demand_driven;
}

constexpr app::SchedulerKind kKinds[] = {app::SchedulerKind::kDelay,
                                         app::SchedulerKind::kLocalityPreferred,
                                         app::SchedulerKind::kFifo};

const char* KindName(app::SchedulerKind kind) {
  switch (kind) {
    case app::SchedulerKind::kDelay:
      return "delay";
    case app::SchedulerKind::kLocalityPreferred:
      return "locality";
    case app::SchedulerKind::kFifo:
      return "fifo";
  }
  return "?";
}

/// Every (manager, scheduler kind) cell over `seeds_per_cell` distinct
/// seeds.  Seeds are disjoint across cells so the suite as a whole covers
/// kinds * seeds_per_cell * 4 distinct seeds.
void SweepManager(ManagerKind manager, std::uint64_t seed_base,
                  int seeds_per_cell) {
  std::uint64_t seed = seed_base;
  for (const app::SchedulerKind kind : kKinds) {
    for (int i = 0; i < seeds_per_cell; ++i, ++seed) {
      SCOPED_TRACE(std::string("kind=") + KindName(kind) +
                   " seed=" + std::to_string(seed));
      ExpectPathsAgree(BaseConfig(manager, kind, seed));
    }
  }
}

// 4 managers x 3 kinds x 4 seeds = 48 distinct seeds; the feature variants
// below add 44 more configurations (92 total, all distinct).
TEST(RoundEquivalence, CustodyAllKindsManySeeds) {
  SweepManager(ManagerKind::kCustody, 1100, 4);
}

TEST(RoundEquivalence, StandaloneAllKindsManySeeds) {
  SweepManager(ManagerKind::kStandalone, 1200, 4);
}

TEST(RoundEquivalence, PoolAllKindsManySeeds) {
  SweepManager(ManagerKind::kPool, 1300, 4);
}

TEST(RoundEquivalence, OfferAllKindsManySeeds) {
  SweepManager(ManagerKind::kOffer, 1400, 4);
}

// Node failures remove executors from the persistent index (allocated and
// idle alike) — the one mutation path that is neither a grant nor a
// release.  Speculation adds extra release churn.
TEST(RoundEquivalence, FailuresAndSpeculationAgree) {
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kPool}) {
    for (std::uint64_t seed = 1500; seed < 1503; ++seed) {
      SCOPED_TRACE("manager=" + std::to_string(static_cast<int>(manager)) +
                   " seed=" + std::to_string(seed));
      ExperimentConfig config =
          BaseConfig(manager, app::SchedulerKind::kDelay, seed);
      config.node_failures = 2;
      config.failure_start = 10.0;
      config.failure_interval = 15.0;
      config.slow_node_fraction = 0.2;
      config.speculation = true;
      ExpectPathsAgree(config);
    }
  }
}

// The block cache changes the locations the demand-driven candidate
// enumeration walks (cached replicas join block->node lookups).
TEST(RoundEquivalence, CachedWorkloadAgrees) {
  for (std::uint64_t seed = 1600; seed < 1604; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExperimentConfig config =
        BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, seed);
    config.cache_mb_per_node = 256.0;
    config.trace.zipf_skew = 1.2;
    ExpectPathsAgree(config);
  }
}

// Steady-state mode: lazy submission stream, job retirement, streaming
// metrics — the long-horizon regime the skip trigger exists for.  Released
// executors re-enter the index millions of times at scale; here a smaller
// stream still exercises the same add/remove cycling.
TEST(RoundEquivalence, SteadyStateStreamAgrees) {
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kOffer}) {
    for (std::uint64_t seed = 1700; seed < 1702; ++seed) {
      SCOPED_TRACE("manager=" + std::to_string(static_cast<int>(manager)) +
                   " seed=" + std::to_string(seed));
      ExperimentConfig config =
          BaseConfig(manager, app::SchedulerKind::kDelay, seed);
      config.trace.jobs_per_app = 30;
      config.steady.enabled = true;
      config.steady.warmup = 20.0;
      ExpectPathsAgree(config);
    }
  }
}

/// Speculation, slow nodes, a block cache and node failures on top of
/// `BaseConfig`.
ExperimentConfig WithStragglersCacheAndFailures(ExperimentConfig config) {
  config.speculation = true;
  config.slow_node_fraction = 0.2;
  config.cache_mb_per_node = 256.0;
  config.trace.zipf_skew = 1.2;
  config.node_failures = 2;
  config.failure_start = 10.0;
  config.failure_interval = 15.0;
  return config;
}

// The statically provisioned managers hold many free executors while jobs
// wait for locality, which is where the kick walk's jumps between
// local-ready nodes interleave with clone offers to stragglers.  Every
// scheduler kind, with and without speculation, under cache and failure
// churn, on a cluster larger than the demand.
TEST(RoundEquivalence, StandaloneAndOfferKickWalkAgrees) {
  std::uint64_t seed = 1900;
  std::uint64_t clones = 0;
  for (const ManagerKind manager :
       {ManagerKind::kStandalone, ManagerKind::kOffer}) {
    for (const bool speculation : {false, true}) {
      for (const app::SchedulerKind kind : kKinds) {
        for (int i = 0; i < 2; ++i, ++seed) {
          SCOPED_TRACE("manager=" + std::to_string(static_cast<int>(manager)) +
                       " speculation=" + std::to_string(speculation) +
                       " kind=" + KindName(kind) +
                       " seed=" + std::to_string(seed));
          ExperimentConfig config =
              WithStragglersCacheAndFailures(BaseConfig(manager, kind, seed));
          config.num_nodes = 48;
          config.speculation = speculation;
          clones += ExpectPathsAgree(config).speculative_launches;
        }
      }
    }
  }
  EXPECT_GT(clones, 0u);
}

// spec-1k's regime: a steady-state stream with speculation, slow nodes, a
// block cache and failures, so straggler candidates come and go as jobs
// retire and the slow thresholds are re-derived as input stages finish.
TEST(RoundEquivalence, SteadyStateStragglersCacheAndFailuresAgree) {
  std::uint64_t clones = 0;
  for (std::uint64_t seed = 2000; seed < 2006; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExperimentConfig config = WithStragglersCacheAndFailures(
        BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, seed));
    config.kinds = {WorkloadKind::kPageRank, WorkloadKind::kWordCount,
                    WorkloadKind::kSort};
    config.trace.jobs_per_app = 30;
    config.node_failures = 3;
    config.steady.enabled = true;
    config.steady.warmup = 20.0;
    clones += ExpectPathsAgree(config).speculative_launches;
  }
  EXPECT_GT(clones, 0u);
}

// The custody skip trigger must actually fire on a plain workload (the
// equivalence above would pass vacuously if it never did): between a job's
// last release and the next submission, rounds find every app at budget.
TEST(RoundEquivalence, SkipTriggerFiresOnPlainWorkload) {
  ExperimentConfig config =
      BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, 1800);
  config.allocator.demand_driven = true;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.manager_stats.rounds_skipped, 0u);
  EXPECT_GT(result.manager_stats.allocation_rounds,
            result.manager_stats.rounds_skipped);
}

}  // namespace
}  // namespace custody::workload
