// The experiment entry points: configure a run, get back the summaries the
// paper's figures report.
//
// RunExperiment is a thin composition of the harness layers in harness.h —
// ValidateConfig, SubstrateSnapshot (the manager-independent inputs, built
// once), SimulationContext (the per-run substrate) and the cluster-side
// ManagerFactory; sweep.h runs many configs on a thread pool.
//
// Determinism contract: for a fixed seed, the DFS layout, dataset catalog
// and submission schedule are identical across manager kinds, so a
// Custody-vs-standalone comparison differs only in allocation decisions —
// the paper's "common job submission schedule" methodology.  Every run
// pulls that schedule from a SubmissionStream (trace.h), one arrival ahead.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "app/application.h"
#include "cluster/manager.h"
#include "cluster/manager_factory.h"
#include "core/allocator.h"
#include "common/stats.h"
#include "metrics/metrics.h"
#include "obs/trace.h"
#include "workload/trace.h"
#include "workload/workloads.h"

namespace custody::workload {

// The manager 4-way switch lives behind cluster::MakeManager; the kind enum
// is re-exported here so existing workload-level callers keep compiling.
using cluster::ManagerKind;
using cluster::ManagerName;

/// Periodic checkpointing and resume.  A checkpoint is a snap:: snapshot of
/// the complete dynamic simulation state; each file gets a JSON manifest
/// sidecar (`<file>.json`) recording schema version, config hash and sim
/// time.  Resume requires the identical config + manager (pinned by the
/// config hash in the snapshot header).
struct CheckpointConfig {
  /// > 0: write a checkpoint every `every` simulated seconds.  0 disables.
  SimTime every = 0.0;
  /// Where checkpoint files (`checkpoint-NNNN.snap`) land.
  std::string directory = ".";
  /// Non-empty: restore this snapshot before running.
  std::string resume_path;
};

struct ExperimentConfig {
  // Cluster (paper Sec. VI-A1).
  std::size_t num_nodes = 100;
  int executors_per_node = 2;
  double disk_mbps = 400.0;
  double uplink_gbps = 2.0;
  double downlink_gbps = 40.0;
  double core_gbps = 0.0;  ///< 0 = non-blocking fabric

  // DFS.
  double block_mb = 128.0;
  int replication = 3;
  DatasetConfig dataset;
  /// Per-node in-memory block cache (0 disables).  Remote reads populate
  /// it; cached copies count as data-local afterwards (Sec. III-A's
  /// "stores or caches" executor model).
  double cache_mb_per_node = 0.0;

  // Scheduling.
  ManagerKind manager = ManagerKind::kCustody;
  /// Custody ablation switches (ignored by the other managers).
  core::AllocatorOptions allocator;
  app::SchedulerConfig scheduler;  // delay scheduling, 3 s wait
  int shuffle_fan_in = 3;
  /// Speculative execution of slow input tasks (straggler mitigation).
  bool speculation = false;
  double speculation_multiplier = 1.5;

  /// Heterogeneity: this fraction of nodes computes `slow_node_factor`
  /// times slower than nominal (the classic straggler source).
  double slow_node_fraction = 0.0;
  double slow_node_factor = 4.0;

  // Failure injection: crash this many random nodes, the first at
  // `failure_start`, then every `failure_interval` seconds.
  int node_failures = 0;
  double failure_start = 20.0;
  double failure_interval = 20.0;

  // Workload.
  std::vector<WorkloadKind> kinds{WorkloadKind::kWordCount};
  TraceConfig trace;
  WorkloadParams params;

  /// Open-loop steady-state streaming (million-job horizons): per-app
  /// arrival forks, pool-backed job retirement and constant-memory
  /// metrics.  Off by default — the paper's classic schedule runs, with
  /// exact metrics.
  SteadyStateConfig steady;

  /// Span tracing (obs::Tracer).  Off by default; when enabled the run
  /// records into a pre-sized ring buffer surfaced as ExperimentResult's
  /// `trace`.  Results are bit-identical with tracing on or off.
  obs::TracerConfig tracing;

  /// Checkpoint/resume (snap:: snapshots).  Checkpointing and resuming
  /// never perturb the simulation: snapshots are taken at between-events
  /// boundaries (run_until) without scheduling anything, so a resumed run
  /// is bit-identical to an uninterrupted one.
  CheckpointConfig checkpoint;

  std::uint64_t seed = 42;
};

/// The interval a numeric config field must lie in whatever the other
/// fields hold (ValidateConfig checks it).  The default admits any value.
inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();
struct Range {
  double lo = -kUnbounded;
  double hi = kUnbounded;
  bool lo_open = false;
  bool hi_open = false;
};
inline constexpr Range kPositive{0, kUnbounded, /*lo_open=*/true};
inline constexpr Range kNonNegative{0};
inline constexpr Range kFraction{0, 1};

/// The config's field list, the one place a knob is declared: each field
/// once, with its JSON key, its member and its range (a Range, or an enum's
/// name table).  Four walkers run it: the JSON decoder and encoder
/// (svc/json_api.cpp), ConfigHash and ValidateConfig (harness.cpp).  A
/// walker has `field(key, member[, range])` and `group(key, body, hashed =
/// true)`, where `body()` walks the group's fields; Config is const for the
/// walkers that only read.
///
/// To add a knob, add its member and one line here, at its place in the
/// hash, and bump ConfigHash's salt.  `tracing` never changes a run, so
/// ConfigHash skips it; `checkpoint` is server-side file I/O and is not
/// listed.
template <class Config, class Io>
void Fields(Config& c, Io& io) {
  // Cluster.
  io.field("num_nodes", c.num_nodes, kPositive);
  io.field("executors_per_node", c.executors_per_node, kPositive);
  io.field("disk_mbps", c.disk_mbps, kPositive);
  io.field("uplink_gbps", c.uplink_gbps, kPositive);
  io.field("downlink_gbps", c.downlink_gbps, kPositive);
  io.field("core_gbps", c.core_gbps, kNonNegative);  // 0 = non-blocking
  // DFS.
  io.field("block_mb", c.block_mb, kPositive);
  io.field("replication", c.replication, kPositive);
  io.group("dataset", [&] {
    io.field("popularity_replication", c.dataset.popularity_replication);
    io.field("popularity_extra_replicas", c.dataset.popularity_extra_replicas,
             kNonNegative);
    io.field("hot_fraction", c.dataset.hot_fraction, kFraction);
  });
  io.field("cache_mb_per_node", c.cache_mb_per_node, kNonNegative);
  // Scheduling.
  io.field("manager", c.manager, cluster::kManagerNames);
  io.group("allocator", [&] {
    io.field("locality_fair", c.allocator.locality_fair);
    io.field("priority_jobs", c.allocator.priority_jobs);
  });
  io.group("scheduler", [&] {
    io.field("kind", c.scheduler.kind, app::kSchedulerNames);
    io.field("locality_wait", c.scheduler.locality_wait);
  });
  io.field("shuffle_fan_in", c.shuffle_fan_in, kPositive);
  io.field("speculation", c.speculation);
  io.field("speculation_multiplier", c.speculation_multiplier);
  // Heterogeneity and failures.
  io.field("slow_node_fraction", c.slow_node_fraction, kFraction);
  io.field("slow_node_factor", c.slow_node_factor, kPositive);
  io.field("node_failures", c.node_failures, kNonNegative);
  io.field("failure_start", c.failure_start);
  io.field("failure_interval", c.failure_interval);
  // Workload.
  io.field("kinds", c.kinds, kWorkloadNames);
  io.group("trace", [&] {
    io.field("num_apps", c.trace.num_apps, kPositive);
    io.field("jobs_per_app", c.trace.jobs_per_app, kPositive);
    io.field("mean_interarrival", c.trace.mean_interarrival, kPositive);
    io.field("zipf_skew", c.trace.zipf_skew, kNonNegative);
    io.field("files_per_kind", c.trace.files_per_kind, kPositive);
  });
  io.group("params", [&] {
    auto& p = c.params;
    io.field("pagerank_iterations", p.pagerank_iterations);
    io.field("pagerank_compute_per_byte", p.pagerank_compute_per_byte);
    io.field("pagerank_shuffle_ratio", p.pagerank_shuffle_ratio);
    io.field("pagerank_iter_compute_per_byte",
             p.pagerank_iter_compute_per_byte);
    io.field("wordcount_compute_per_byte", p.wordcount_compute_per_byte);
    io.field("wordcount_shuffle_ratio", p.wordcount_shuffle_ratio);
    io.field("wordcount_reduce_secs", p.wordcount_reduce_secs);
    io.field("sort_compute_per_byte", p.sort_compute_per_byte);
    io.field("sort_shuffle_ratio", p.sort_shuffle_ratio);
    io.field("sort_reduce_compute_per_byte", p.sort_reduce_compute_per_byte);
  });
  io.group("steady", [&] {
    io.field("enabled", c.steady.enabled);
    io.field("retire_jobs", c.steady.retire_jobs);
    io.field("streaming_metrics", c.steady.streaming_metrics);
    io.field("warmup", c.steady.warmup, kNonNegative);
    // Below 1, so the diurnal arrival rate stays positive.
    io.field("diurnal_amplitude", c.steady.diurnal_amplitude,
             Range{0, 1, false, /*hi_open=*/true});
    io.field("diurnal_period", c.steady.diurnal_period);
  });
  io.field("seed", c.seed);
  io.group("tracing", [&] {
    io.field("enabled", c.tracing.enabled);
    io.field("capacity", c.tracing.capacity);
  }, /*hashed=*/false);
}

struct ExperimentResult {
  std::string manager_name;
  /// Fig. 7: per-job % of local input tasks (mean/stddev are the bars).
  Summary job_locality;
  double overall_task_locality_percent = 0.0;
  double local_job_percent = 0.0;
  /// Fig. 8: job completion times.
  Summary jct;
  /// Fig. 9: input (map) stage durations.
  Summary input_stage;
  /// Fig. 10: scheduler delay of input tasks.
  Summary sched_delay;
  /// Max-min fairness check: per-app fraction of perfectly local jobs.
  std::vector<double> per_app_local_job_fraction;
  cluster::ManagerStats manager_stats;
  /// Allocation-round cost (Custody rounds): wall time per round and the
  /// fraction of rounds that granted at least one executor.
  Summary round_wall;
  double round_yield_fraction = 0.0;
  /// Fluid-network rate-path cost: recomputes run vs. batched away, scan
  /// counters, wall time.
  metrics::NetworkStatsRecord net_stats;
  /// App-layer work counters summed over applications: what the kicks
  /// and release checks enumerated (cost, not outcome).
  app::WorkCounters app_work;
  /// Total bytes moved over the simulated network.
  double net_bytes_delivered = 0.0;
  /// Cache effectiveness when a block cache is configured.
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_hits = 0;
  // Run-lifetime counters are uniformly 64-bit so million-job steady-state
  // horizons cannot wrap them.
  std::uint64_t speculative_launches = 0;
  std::uint64_t speculative_wins = 0;
  int nodes_failed = 0;
  /// Aggregated launch diagnostics: local / covered-but-busy / uncovered.
  std::uint64_t launches_local = 0;
  std::uint64_t launches_covered_busy = 0;
  std::uint64_t launches_uncovered = 0;
  SimTime makespan = 0.0;
  std::uint64_t events_processed = 0;
  std::uint64_t jobs_completed = 0;
  /// Steady-state runs: jobs destroyed through the per-app job pools
  /// (0 unless steady.retire_jobs), and the sum of per-application peak
  /// live-task counts — an upper bound on the global high-water mark that
  /// certifies bounded memory over million-job horizons.
  std::uint64_t jobs_retired = 0;
  std::uint64_t peak_live_tasks = 0;
  /// The run's recorded trace (null unless config.tracing.enabled).  Feed
  /// it to obs::WriteChromeTrace or obs::CriticalPathAnalyzer.
  std::shared_ptr<const obs::TraceBuffer> trace;
};

class RunControl;  // workload/harness.h — progress observer + cancel flag

/// Validate, snapshot, run `config.manager`, collect.  Throws
/// std::invalid_argument (with the offending knob named) on bad configs.
/// A non-null `control` observes progress and can cancel cooperatively
/// (throws RunCancelled); attaching one never changes the result.
ExperimentResult RunExperiment(const ExperimentConfig& config,
                               RunControl* control = nullptr);

/// Convenience: same config run under two managers, for gain rows.
struct Comparison {
  ExperimentResult baseline;
  ExperimentResult custody;
};
/// Builds the manager-independent substrate snapshot once and replays it
/// under both managers — bit-identical to two RunExperiment calls.
Comparison CompareManagers(ExperimentConfig config,
                           ManagerKind baseline = ManagerKind::kStandalone);

}  // namespace custody::workload
