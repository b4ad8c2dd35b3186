// The paper's three representative workloads (Sec. VI-A2) as JobSpec
// factories, plus the dataset catalog they read from.
//
//   PageRank  — iterative and network-heavy: 1 GB input per job, several
//               bulk-synchronous iterations each shuffling a large fraction
//               of the graph (so speeding up only the input stage moves the
//               end-to-end time less — the paper's Fig. 8 observation).
//   WordCount — network-light: 4–8 GB input, tiny shuffle, one short reduce.
//   Sort      — compute- and network-heavy: 1–8 GB input, full-size shuffle.
//
// Inputs model subsets of the 32 GB Wiki dump: a shared catalog of files per
// workload; jobs sample files Zipf-skewed, so hot blocks are contended
// across applications exactly as popular datasets are in production.
#pragma once

#include <string>
#include <vector>

#include "app/job.h"
#include "common/names.h"
#include "common/rng.h"
#include "common/units.h"
#include "dfs/dfs.h"

namespace custody::workload {

enum class WorkloadKind { kPageRank, kWordCount, kSort };

inline constexpr KindName<WorkloadKind> kWorkloadNames[] = {
    {WorkloadKind::kPageRank, "PageRank"},
    {WorkloadKind::kWordCount, "WordCount"},
    {WorkloadKind::kSort, "Sort"}};

[[nodiscard]] const char* WorkloadName(WorkloadKind kind);

/// Per-workload cost model.  Compute rates are seconds of CPU per byte of
/// input; shuffle ratios are bytes shuffled per byte of input.
struct WorkloadParams {
  // PageRank
  int pagerank_iterations = 3;
  double pagerank_compute_per_byte = 1.0 / units::MB(128.0);
  double pagerank_shuffle_ratio = 0.5;   ///< per iteration
  double pagerank_iter_compute_per_byte = 0.8 / units::MB(128.0);
  // WordCount
  double wordcount_compute_per_byte = 1.2 / units::MB(128.0);
  double wordcount_shuffle_ratio = 0.03;
  double wordcount_reduce_secs = 0.3;
  // Sort
  double sort_compute_per_byte = 0.8 / units::MB(128.0);
  double sort_shuffle_ratio = 1.0;
  double sort_reduce_compute_per_byte = 0.5 / units::MB(128.0);
};

/// The shared input files of one workload kind.
struct Dataset {
  WorkloadKind kind;
  std::vector<FileId> files;
};

/// The catalog's replication knobs.  Its size and popularity skew are the
/// trace's (TraceConfig::files_per_kind and zipf_skew).
struct DatasetConfig {
  /// Scarlett-style: extra replicas for the hottest files.
  bool popularity_replication = false;
  int popularity_extra_replicas = 2;
  /// Fraction of files counted as "hot" for popularity replication.
  double hot_fraction = 0.25;
};

/// One planned catalog file: everything stochastic about a dataset, drawn
/// up front so the same plan can be materialized into any number of fresh
/// DFS instances bit-identically (the SubstrateSnapshot contract).
struct FileSpec {
  std::string path;
  double bytes = 0.0;
  bool hot = false;  ///< receives the Scarlett-style popularity boost
};

/// Draw the `files`-file catalog of `kind` from `rng` without touching a
/// DFS.  File sizes follow the paper: PageRank 1 GB; WordCount uniform in
/// [4, 8] GB; Sort in [1, 8] GB.
std::vector<FileSpec> PlanDataset(WorkloadKind kind, int files,
                                  const DatasetConfig& config, Rng& rng);

/// Create a planned catalog's files in `dfs` (consumes only the DFS's own
/// placement randomness; `plan` already fixed the sizes).
Dataset MaterializeDataset(dfs::Dfs& dfs, WorkloadKind kind,
                           const DatasetConfig& config,
                           const std::vector<FileSpec>& plan);

/// Create the input files for `kind` in the DFS: PlanDataset +
/// MaterializeDataset in one step.
Dataset BuildDataset(dfs::Dfs& dfs, WorkloadKind kind, int files,
                     const DatasetConfig& config, Rng& rng);

/// Compile one job of `kind` over `file` into a JobSpec.
app::JobSpec MakeJobSpec(WorkloadKind kind, FileId file, const dfs::Dfs& dfs,
                         const WorkloadParams& params);

}  // namespace custody::workload
