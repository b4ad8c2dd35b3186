#include "workload/workloads.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace custody::workload {

const char* WorkloadName(WorkloadKind kind) {
  return NameIn(kWorkloadNames, kind);
}

std::vector<FileSpec> PlanDataset(WorkloadKind kind, int files,
                                  const DatasetConfig& config, Rng& rng) {
  if (files <= 0) {
    throw std::invalid_argument("PlanDataset: files must be > 0");
  }
  // Hot-file count: ceil keeps any non-zero fraction from rounding to zero
  // files, but unguarded it over-counts at the boundaries — hot_fraction
  // values like 1/3 are not exact in binary, so the product can land an ulp
  // above an integer and ceil to one extra file, and hot_fraction = 1.0
  // plus FP error could exceed the file count outright.  Clamp to the valid
  // range and shave sub-ulp excess before the ceil.
  const double hot_exact = config.hot_fraction * files;
  const int hot_files =
      std::clamp(static_cast<int>(std::ceil(hot_exact - 1e-9)), 0, files);
  std::vector<FileSpec> plan;
  plan.reserve(static_cast<std::size_t>(files));
  for (int i = 0; i < files; ++i) {
    FileSpec spec;
    switch (kind) {
      case WorkloadKind::kPageRank:
        spec.bytes = units::GB(1.0);
        break;
      case WorkloadKind::kWordCount:
        spec.bytes = units::GB(rng.uniform(4.0, 8.0));
        break;
      case WorkloadKind::kSort:
        spec.bytes = units::GB(rng.uniform(1.0, 8.0));
        break;
    }
    spec.path = std::string("/data/") + WorkloadName(kind) + "/part-" +
                std::to_string(i);
    // File index i is sampled with Zipf pmf(i): the lowest indices are the
    // hottest, so they get the Scarlett-style replica boost.
    spec.hot = config.popularity_replication && i < hot_files;
    plan.push_back(std::move(spec));
  }
  return plan;
}

Dataset MaterializeDataset(dfs::Dfs& dfs, WorkloadKind kind,
                           const DatasetConfig& config,
                           const std::vector<FileSpec>& plan) {
  Dataset dataset;
  dataset.kind = kind;
  dataset.files.reserve(plan.size());
  for (const FileSpec& spec : plan) {
    const FileId file = dfs.write_file(spec.path, spec.bytes);
    if (spec.hot) {
      dfs.boost_replication(file, config.popularity_extra_replicas);
    }
    dataset.files.push_back(file);
  }
  return dataset;
}

Dataset BuildDataset(dfs::Dfs& dfs, WorkloadKind kind, int files,
                     const DatasetConfig& config, Rng& rng) {
  return MaterializeDataset(dfs, kind, config,
                            PlanDataset(kind, files, config, rng));
}

app::JobSpec MakeJobSpec(WorkloadKind kind, FileId file, const dfs::Dfs& dfs,
                         const WorkloadParams& params) {
  const dfs::FileInfo& info = dfs.namenode().file(file);
  const int num_blocks = static_cast<int>(info.blocks.size());
  assert(num_blocks > 0);

  app::JobSpec spec;
  spec.input_file = file;
  spec.name = std::string(WorkloadName(kind)) + "(" + info.path + ")";

  switch (kind) {
    case WorkloadKind::kPageRank: {
      spec.input_compute_secs_per_byte = params.pagerank_compute_per_byte;
      // Each iteration is a bulk-synchronous stage over the whole graph.
      for (int it = 0; it < params.pagerank_iterations; ++it) {
        app::ShuffleStageSpec stage;
        stage.num_tasks = num_blocks;
        stage.shuffle_bytes = params.pagerank_shuffle_ratio * info.bytes;
        stage.compute_secs_per_task =
            params.pagerank_iter_compute_per_byte * info.bytes / num_blocks;
        spec.downstream.push_back(stage);
      }
      break;
    }
    case WorkloadKind::kWordCount: {
      spec.input_compute_secs_per_byte = params.wordcount_compute_per_byte;
      app::ShuffleStageSpec reduce;
      reduce.num_tasks = std::max(1, num_blocks / 8);
      reduce.shuffle_bytes = params.wordcount_shuffle_ratio * info.bytes;
      reduce.compute_secs_per_task = params.wordcount_reduce_secs;
      spec.downstream.push_back(reduce);
      break;
    }
    case WorkloadKind::kSort: {
      spec.input_compute_secs_per_byte = params.sort_compute_per_byte;
      app::ShuffleStageSpec reduce;
      reduce.num_tasks = std::max(1, num_blocks / 2);
      reduce.shuffle_bytes = params.sort_shuffle_ratio * info.bytes;
      reduce.compute_secs_per_task = params.sort_reduce_compute_per_byte *
                                     info.bytes / reduce.num_tasks;
      spec.downstream.push_back(reduce);
      break;
    }
  }
  return spec;
}

FileId SampleFile(const Dataset& dataset, const ZipfDistribution& zipf,
                  Rng& rng) {
  assert(zipf.size() == dataset.files.size());
  return dataset.files[zipf(rng)];
}

}  // namespace custody::workload
