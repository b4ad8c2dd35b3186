// Tests for the workload generators, datasets, traces, and the experiment
// runner's determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "workload/experiment.h"
#include "workload/trace.h"
#include "workload/workloads.h"

namespace custody::workload {
namespace {

using custody::units::GB;
using custody::units::MB;

dfs::Dfs MakeDfs(std::size_t nodes = 20) {
  dfs::DfsConfig c;
  c.num_nodes = nodes;
  return dfs::Dfs(c, Rng(3));
}

TEST(Workloads, Names) {
  EXPECT_STREQ(WorkloadName(WorkloadKind::kPageRank), "PageRank");
  EXPECT_STREQ(WorkloadName(WorkloadKind::kWordCount), "WordCount");
  EXPECT_STREQ(WorkloadName(WorkloadKind::kSort), "Sort");
}

TEST(Dataset, FileSizesMatchThePaper) {
  auto dfs = MakeDfs();
  Rng rng(1);
  DatasetConfig config;
  config.files_per_kind = 6;
  const auto pr = BuildDataset(dfs, WorkloadKind::kPageRank, config, rng);
  for (FileId f : pr.files) {
    EXPECT_DOUBLE_EQ(dfs.namenode().file(f).bytes, GB(1.0));
  }
  const auto wc = BuildDataset(dfs, WorkloadKind::kWordCount, config, rng);
  for (FileId f : wc.files) {
    EXPECT_GE(dfs.namenode().file(f).bytes, GB(4.0));
    EXPECT_LE(dfs.namenode().file(f).bytes, GB(8.0));
  }
  const auto sort = BuildDataset(dfs, WorkloadKind::kSort, config, rng);
  for (FileId f : sort.files) {
    EXPECT_GE(dfs.namenode().file(f).bytes, GB(1.0));
    EXPECT_LE(dfs.namenode().file(f).bytes, GB(8.0));
  }
}

TEST(Dataset, PopularityReplicationBoostsHotFiles) {
  auto dfs = MakeDfs();
  Rng rng(2);
  DatasetConfig config;
  config.files_per_kind = 8;
  config.popularity_replication = true;
  config.popularity_extra_replicas = 2;
  config.hot_fraction = 0.25;  // 2 of 8 files are hot
  const auto ds = BuildDataset(dfs, WorkloadKind::kPageRank, config, rng);
  for (std::size_t i = 0; i < ds.files.size(); ++i) {
    const auto replicas =
        dfs.locations(dfs.blocks_of(ds.files[i]).front()).size();
    EXPECT_EQ(replicas, i < 2 ? 5u : 3u) << "file " << i;
  }
}

TEST(Dataset, HotFileCountClampsAtTheBoundaries) {
  // Regression for the ceil-based hot count: binary fractions like 9/14
  // land an ulp above the exact product (9/14 · 42 = 27.000000000000004),
  // so an unguarded ceil marked one extra file hot; hot_fraction = 1.0
  // must cover exactly the whole catalog and 0.0 must mark nothing.
  Rng rng(7);
  const auto hot_count = [&rng](double fraction, int files) {
    DatasetConfig config;
    config.files_per_kind = files;
    config.hot_fraction = fraction;
    config.popularity_replication = true;  // hot flags are only set under it
    int hot = 0;
    for (const FileSpec& spec :
         PlanDataset(WorkloadKind::kPageRank, config, rng)) {
      hot += spec.hot ? 1 : 0;
    }
    return hot;
  };
  EXPECT_EQ(hot_count(0.0, 8), 0);
  EXPECT_EQ(hot_count(1.0, 8), 8);
  EXPECT_EQ(hot_count(9.0 / 14.0, 42), 27);  // product rounds above 27
  EXPECT_EQ(hot_count(1.0 / 3.0, 9), 3);
  EXPECT_EQ(hot_count(1.0 / 3.0, 7), 3);  // ceil(2.33) = 3: round up, not down
  EXPECT_EQ(hot_count(0.01, 5), 1);       // small fractions still mark a file
}

TEST(JobSpecs, WordCountShape) {
  auto dfs = MakeDfs();
  Rng rng(4);
  DatasetConfig config;
  config.files_per_kind = 1;
  const auto ds = BuildDataset(dfs, WorkloadKind::kWordCount, config, rng);
  const auto spec =
      MakeJobSpec(WorkloadKind::kWordCount, ds.files[0], dfs, WorkloadParams{});
  const int blocks = static_cast<int>(dfs.blocks_of(ds.files[0]).size());
  ASSERT_EQ(spec.downstream.size(), 1u);  // map + one reduce
  EXPECT_EQ(spec.downstream[0].num_tasks, std::max(1, blocks / 8));
  // Network-light: shuffle is a few percent of the input.
  const double input = dfs.namenode().file(ds.files[0]).bytes;
  EXPECT_LT(spec.downstream[0].shuffle_bytes, 0.1 * input);
}

TEST(JobSpecs, SortShufflesEverything) {
  auto dfs = MakeDfs();
  Rng rng(5);
  DatasetConfig config;
  config.files_per_kind = 1;
  const auto ds = BuildDataset(dfs, WorkloadKind::kSort, config, rng);
  const auto spec =
      MakeJobSpec(WorkloadKind::kSort, ds.files[0], dfs, WorkloadParams{});
  const double input = dfs.namenode().file(ds.files[0]).bytes;
  ASSERT_EQ(spec.downstream.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.downstream[0].shuffle_bytes, input);
}

TEST(JobSpecs, PageRankIterates) {
  auto dfs = MakeDfs();
  Rng rng(6);
  DatasetConfig config;
  config.files_per_kind = 1;
  const auto ds = BuildDataset(dfs, WorkloadKind::kPageRank, config, rng);
  WorkloadParams params;
  params.pagerank_iterations = 5;
  const auto spec = MakeJobSpec(WorkloadKind::kPageRank, ds.files[0], dfs,
                                params);
  EXPECT_EQ(spec.downstream.size(), 5u);
  for (const auto& stage : spec.downstream) {
    EXPECT_EQ(stage.num_tasks,
              static_cast<int>(dfs.blocks_of(ds.files[0]).size()));
    EXPECT_GT(stage.shuffle_bytes, 0.0);
  }
}

// The materialized generator the classic schedule came from before it
// became a SubmissionStream: one rng drawn application after application,
// then stable-sorted by time.  Kept here as the oracle a drained classic
// stream must equal bit for bit.
std::vector<Submission> GenerateMixedTrace(
    const std::vector<WorkloadKind>& kinds, const TraceConfig& config,
    Rng& rng) {
  const ZipfDistribution zipf(static_cast<std::size_t>(config.files_per_kind),
                              config.zipf_skew);
  std::vector<Submission> trace;
  for (int a = 0; a < config.num_apps; ++a) {
    SimTime t = 0.0;
    for (int j = 0; j < config.jobs_per_app; ++j) {
      t += rng.exponential(config.mean_interarrival);
      Submission s;
      s.time = t;
      s.app_index = a;
      s.kind = kinds.size() == 1 ? kinds.front()
                                 : kinds[rng.index(kinds.size())];
      s.file_index = zipf(rng);
      trace.push_back(s);
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Submission& a, const Submission& b) {
                     return a.time < b.time;
                   });
  return trace;
}

/// The paper's classic schedule (steady state off) over `rng`, drained.
std::vector<Submission> ClassicTrace(std::vector<WorkloadKind> kinds,
                                     const TraceConfig& config,
                                     const Rng& rng) {
  return DrainStream(
      SubmissionStream(std::move(kinds), config, SteadyStateConfig{}, rng));
}

TEST(Trace, ClassicStreamMatchesMaterializedOracle) {
  const WorkloadKind all[] = {WorkloadKind::kPageRank,
                              WorkloadKind::kWordCount, WorkloadKind::kSort};
  int configs = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng shape(seed);  // draws each config's shape, not its schedule
    for (const int kind_count : {1, 2, 3}) {
      for (const int apps : {1, 3, 4, 7}) {
        std::vector<WorkloadKind> kinds;
        for (int k = 0; k < kind_count; ++k) {
          kinds.push_back(all[(seed + static_cast<std::uint64_t>(k)) % 3]);
        }
        TraceConfig config;
        config.num_apps = apps;
        config.jobs_per_app = shape.uniform_int(1, 41);
        config.mean_interarrival = shape.uniform(0.5, 30.0);
        config.zipf_skew = shape.uniform(0.0, 2.0);
        config.files_per_kind = shape.uniform_int(1, 40);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " kinds=" + std::to_string(kind_count) +
                     " apps=" + std::to_string(apps) +
                     " jobs=" + std::to_string(config.jobs_per_app));
        const Rng base = Rng(seed).fork(3);
        Rng oracle_rng = base;
        const std::vector<Submission> want =
            GenerateMixedTrace(kinds, config, oracle_rng);
        const std::vector<Submission> got = ClassicTrace(kinds, config, base);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].time, want[i].time) << "i=" << i;
          ASSERT_EQ(got[i].app_index, want[i].app_index) << "i=" << i;
          ASSERT_EQ(got[i].kind, want[i].kind) << "i=" << i;
          ASSERT_EQ(got[i].file_index, want[i].file_index) << "i=" << i;
        }
        ++configs;
      }
    }
  }
  EXPECT_EQ(configs, 2400);
}

TEST(Trace, SortedWithCorrectCounts) {
  TraceConfig config;
  config.num_apps = 3;
  config.jobs_per_app = 5;
  const auto trace = ClassicTrace({WorkloadKind::kSort}, config, Rng(7));
  ASSERT_EQ(trace.size(), 15u);
  std::vector<int> per_app(3, 0);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].time, trace[i].time);
  }
  for (const auto& s : trace) {
    ++per_app[static_cast<std::size_t>(s.app_index)];
    EXPECT_EQ(s.kind, WorkloadKind::kSort);
    EXPECT_LT(s.file_index, static_cast<std::size_t>(config.files_per_kind));
  }
  EXPECT_EQ(per_app, (std::vector<int>{5, 5, 5}));
}

TEST(Trace, MeanInterArrivalApproximatelyRight) {
  TraceConfig config;
  config.num_apps = 1;
  config.jobs_per_app = 4000;
  config.mean_interarrival = 16.0;
  const auto trace = ClassicTrace({WorkloadKind::kWordCount}, config, Rng(8));
  EXPECT_NEAR(trace.back().time / 4000.0, 16.0, 1.0);
}

TEST(Trace, MixedTraceUsesAllKinds) {
  TraceConfig config;
  config.num_apps = 2;
  config.jobs_per_app = 50;
  const auto trace = ClassicTrace(
      {WorkloadKind::kPageRank, WorkloadKind::kSort}, config, Rng(9));
  std::set<WorkloadKind> kinds;
  for (const auto& s : trace) kinds.insert(s.kind);
  EXPECT_EQ(kinds.size(), 2u);
}

TEST(Trace, RejectsDegenerateConfigs) {
  TraceConfig config;
  config.num_apps = 0;
  EXPECT_THROW((void)ClassicTrace({WorkloadKind::kSort}, config, Rng(10)),
               std::invalid_argument);
  config.num_apps = 1;
  EXPECT_THROW((void)ClassicTrace({}, config, Rng(10)),
               std::invalid_argument);
}

// ---------- experiment runner ------------------------------------------------

ExperimentConfig SmallExperiment(ManagerKind manager) {
  ExperimentConfig config;
  config.num_nodes = 12;
  config.manager = manager;
  config.kinds = {WorkloadKind::kWordCount};
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 4;
  config.trace.files_per_kind = 3;
  config.seed = 11;
  return config;
}

TEST(Experiment, CompletesAllJobs) {
  for (ManagerKind m : {ManagerKind::kStandalone, ManagerKind::kCustody,
                        ManagerKind::kOffer}) {
    const auto result = RunExperiment(SmallExperiment(m));
    EXPECT_EQ(result.jobs_completed, 8) << ManagerName(m);
    EXPECT_EQ(result.jct.count, 8u);
    EXPECT_GT(result.makespan, 0.0);
    EXPECT_GT(result.events_processed, 0u);
  }
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = RunExperiment(SmallExperiment(ManagerKind::kCustody));
  const auto b = RunExperiment(SmallExperiment(ManagerKind::kCustody));
  EXPECT_DOUBLE_EQ(a.job_locality.mean, b.job_locality.mean);
  EXPECT_DOUBLE_EQ(a.jct.mean, b.jct.mean);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(Experiment, SeedChangesTheRun) {
  auto config = SmallExperiment(ManagerKind::kCustody);
  const auto a = RunExperiment(config);
  config.seed = 12;
  const auto b = RunExperiment(config);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Experiment, ManagerNameReported) {
  EXPECT_EQ(RunExperiment(SmallExperiment(ManagerKind::kOffer)).manager_name,
            "offer");
  EXPECT_STREQ(ManagerName(ManagerKind::kStandalone), "standalone");
}

TEST(Experiment, OfferManagerTracksRejections) {
  const auto result = RunExperiment(SmallExperiment(ManagerKind::kOffer));
  EXPECT_GT(result.manager_stats.offers_made, 0u);
}

TEST(Experiment, CompareManagersSharesLayout) {
  const auto cmp = CompareManagers(SmallExperiment(ManagerKind::kCustody));
  EXPECT_EQ(cmp.baseline.jobs_completed, cmp.custody.jobs_completed);
  EXPECT_EQ(cmp.baseline.manager_name, "standalone");
  EXPECT_EQ(cmp.custody.manager_name, "custody");
}

TEST(Experiment, RejectsEmptyKinds) {
  auto config = SmallExperiment(ManagerKind::kCustody);
  config.kinds.clear();
  EXPECT_THROW(RunExperiment(config), std::invalid_argument);
}

TEST(Experiment, LaunchCountersAddUp) {
  const auto result = RunExperiment(SmallExperiment(ManagerKind::kCustody));
  int input_tasks = 0;
  // 8 jobs, input task counts vary per file; recompute from locality stats:
  input_tasks = result.launches_local + result.launches_covered_busy +
                result.launches_uncovered;
  EXPECT_GT(input_tasks, 0);
  const double locality =
      100.0 * result.launches_local / static_cast<double>(input_tasks);
  EXPECT_NEAR(locality, result.overall_task_locality_percent, 1e-6);
}

}  // namespace
}  // namespace custody::workload
