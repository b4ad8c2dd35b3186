// The experiment harness, decomposed into composable layers:
//
//   ValidateConfig     — every knob range-checked up front, with the
//                        offending field named in the exception, instead of
//                        failing deep inside a substrate constructor.
//   SubstrateSnapshot  — the seed-deterministic, manager-INDEPENDENT inputs
//                        of an experiment (dataset catalog plan, slow-node
//                        plan, failure stream), built once and shared
//                        across manager variants and threads; each run
//                        draws its own copy of the submission stream.
//   SimulationContext  — the per-run substrate (Simulator, Dfs, Network,
//                        Cluster, BlockCache) built fresh from the snapshot;
//                        cheap relative to a run, and never shared.
//   LiveRun            — ONE run in flight: the context plus the manager,
//                        applications, metrics, submission pump and
//                        failure schedule, with deterministic
//                        save()/restore() over the whole stack.
//   RunOnSnapshot      — replay the snapshot under one manager kind (the
//                        cluster-side ManagerFactory picks the concrete
//                        manager) and collect an ExperimentResult,
//                        honouring the config's checkpoint/resume knobs.
//
// Determinism contract: a snapshot fixes every stochastic input, and a
// context replays the same forked rng streams the monolithic runner used,
// so RunOnSnapshot(snapshot, m) is bit-identical to the pre-refactor
// RunExperiment for every manager m — and safe to call from many threads
// at once on the same snapshot (contexts share nothing mutable).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "dfs/cache.h"
#include "dfs/dfs.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/experiment.h"

namespace custody::workload {

/// Range-check every ExperimentConfig knob; throws std::invalid_argument
/// naming the bad field and its value.  RunExperiment, SubstrateSnapshot
/// and the sweep engine all call this before building anything.
void ValidateConfig(const ExperimentConfig& config);

/// The manager-independent inputs of one experiment, derived only from
/// config + seed.  Building it costs one pass over the rng streams; every
/// manager variant (and every sweep thread) replays the same snapshot.
class SubstrateSnapshot {
 public:
  /// Validates `config`, then materializes the catalog and slow-node plans.
  static SubstrateSnapshot Build(ExperimentConfig config);

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }

  struct DatasetPlan {
    WorkloadKind kind;
    std::vector<FileSpec> files;
  };
  /// One plan per distinct workload kind, in first-appearance order.
  [[nodiscard]] const std::vector<DatasetPlan>& dataset_plans() const {
    return dataset_plans_;
  }
  /// A fresh lazy submission stream over this snapshot's trace rng,
  /// fork(3): walked application by application for the classic schedule,
  /// one sub-fork per application when config().steady.enabled.  Every
  /// call returns an identical stream.
  [[nodiscard]] SubmissionStream make_submission_stream() const;
  /// Nodes slowed to 1/slow_node_factor speed (empty when fraction is 0).
  [[nodiscard]] const std::vector<NodeId>& slow_nodes() const {
    return slow_nodes_;
  }
  /// A fresh copy of the failure-injection stream; victims are picked at
  /// run time (they depend on which nodes are still alive) but the stream
  /// is fixed here so every variant kills the same sequence.
  [[nodiscard]] Rng failure_rng() const { return failure_rng_; }

 private:
  SubstrateSnapshot() = default;

  ExperimentConfig config_;
  std::vector<DatasetPlan> dataset_plans_;
  std::vector<NodeId> slow_nodes_;
  Rng failure_rng_{0};
};

/// Owns the substrate of ONE run: Simulator, Dfs, Network, Cluster and
/// BlockCache built from the snapshot's config + seed.  Construction
/// applies the slow-node plan and materializes the dataset catalog into
/// the fresh DFS; two contexts over the same snapshot are bit-identical.
class SimulationContext {
 public:
  explicit SimulationContext(const SubstrateSnapshot& snapshot);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] dfs::Dfs& dfs() { return dfs_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] dfs::BlockCache& cache() { return cache_; }
  /// The materialized catalog: kind -> file ids in this context's DFS.
  [[nodiscard]] const std::map<WorkloadKind, Dataset>& datasets() const {
    return datasets_;
  }
  /// Custody's NameNode oracle over this context: DFS replica locations,
  /// merged with cached copies when the block cache is enabled.
  [[nodiscard]] core::BlockLocationsFn block_locations();

  /// The run's span tracer — null unless config.tracing.enabled.  Owned
  /// here (it holds a pointer into this context's Simulator); the buffer
  /// it fills outlives the context via shared_ptr.
  [[nodiscard]] obs::Tracer* tracer() { return tracer_.get(); }

 private:
  sim::Simulator sim_;
  dfs::Dfs dfs_;
  net::Network net_;
  cluster::Cluster cluster_;
  dfs::BlockCache cache_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::map<WorkloadKind, Dataset> datasets_;
};

/// A progress sample taken at a between-events boundary of one run.
struct RunProgress {
  std::uint64_t events_processed = 0;
  SimTime sim_time = 0.0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_retired = 0;
};

/// Cooperative observation and cancellation of one run, checked strictly at
/// event boundaries.  The observer never schedules anything and consumes no
/// rng, so a run with a RunControl attached is bit-identical to one without
/// (pinned in sweep_test.cpp).  `request_cancel` may be called from any
/// thread; the run notices at the next boundary check and RunOnSnapshot
/// throws RunCancelled.
class RunControl {
 public:
  /// Called every `progress_every` processed events and once at the end of
  /// the run (from the running thread).  Null disables progress sampling.
  std::function<void(const RunProgress&)> on_progress;
  /// Events between boundary checks (progress + cancel).  Smaller is more
  /// responsive, larger is cheaper; the default checks ~30x/s at typical
  /// event rates.
  std::uint64_t progress_every = 1 << 16;

  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Thrown by RunOnSnapshot/RunExperiment when the attached RunControl's
/// cancel flag was observed; the simulation stops at an event boundary and
/// no result is produced.
class RunCancelled : public std::runtime_error {
 public:
  RunCancelled() : std::runtime_error("run cancelled via RunControl") {}
};

/// Canonical 64-bit hash over every determinism-relevant config knob plus
/// the manager kind actually run.  Stored in the snapshot header so a
/// restore onto a different config or manager fails loudly instead of
/// silently diverging.  Excludes the checkpoint and tracing knobs: they
/// never influence simulation state.
[[nodiscard]] std::uint64_t ConfigHash(const ExperimentConfig& config,
                                       ManagerKind manager);

/// One experiment run in flight: the SimulationContext plus everything
/// RunOnSnapshot used to hold in locals — the manager under test, the
/// applications, metrics, the submission pump and the failure-injection
/// schedule.  Splitting construction from run() exposes the between-events
/// boundary where save()/restore() operate:
///
///   run-to-T, save(), restore() into a *fresh* LiveRun over the same
///   snapshot + manager, run-to-end  ==  uninterrupted run, bit-identical
///   (exact doubles, events_processed included).
///
/// Harness-level events (the submission pump, failure injections) are never
/// serialized as closures: each is re-armed from data on restore under its
/// original sequence number — the pump at the stream's head time, the k-th
/// failure at its scheduled instant.  `snapshot` must outlive the LiveRun.
class LiveRun {
 public:
  LiveRun(const SubstrateSnapshot& snapshot, ManagerKind manager);

  LiveRun(const LiveRun&) = delete;
  LiveRun& operator=(const LiveRun&) = delete;

  /// Drain the event queue (the whole experiment).
  void run();
  /// Drain the event queue under a RunControl: progress callbacks every
  /// `control->progress_every` events and a cancel check at the same
  /// boundaries.  Bit-identical to run() — the control only observes.
  /// Returns false when the run stopped on a cancel request (the queue
  /// still holds events); null behaves exactly like run().
  bool run(RunControl* control);
  /// Run every event with time <= `until`, then stop at the boundary —
  /// the snapshot point.  Never schedules anything, so interleaving
  /// run_until/save with run is perturbation-free.
  void run_until(SimTime until);
  /// True once no live events remain (the run is complete).
  [[nodiscard]] bool drained();

  /// A progress sample at the current between-events boundary.
  [[nodiscard]] RunProgress progress();

  /// What-if knob for forked sessions: scale the arrival rate of every
  /// FUTURE submission draw by `factor` (> 0; 2.0 doubles the load), in
  /// classic and steady runs alike; the pending submissions keep their
  /// times.  The scale is part of the serialized stream state, so snapshots
  /// taken after a perturbation restore it.
  void set_arrival_rate_scale(double factor);

  /// Serialize the complete dynamic state as a snapshot file image.
  /// Requires a between-events boundary (construction, run_until, or after
  /// run) and no tracer (trace rings are observability, not state).
  [[nodiscard]] std::vector<std::uint8_t> save();
  /// Restore a snapshot taken on a LiveRun over an identically-configured
  /// snapshot + manager (enforced via the header's config hash).  Existing
  /// queued events are dropped and every layer re-arms its own from the
  /// serialized descriptors.  Throws snap::SnapshotError on any mismatch.
  void restore(const std::vector<std::uint8_t>& bytes);

  /// What-if forking: crash `node` right now, at the current between-events
  /// boundary.  The canonical use is restore() of one snapshot into two
  /// forks, perturbing one, and comparing trajectories.  No-op when `node`
  /// is already dead or the last node alive (InjectNodeFailure's rules).
  void inject_failure(NodeId node);

  /// The figure summaries; call after run() completes.
  [[nodiscard]] ExperimentResult collect();

  [[nodiscard]] sim::Simulator& simulator() { return ctx_.simulator(); }
  [[nodiscard]] std::uint64_t config_hash() const { return config_hash_; }

 private:
  /// The snapshot's section list, shared by save() and restore().
  template <class Self, class Io>
  static void Sections(Self& self, Io& io);
  void submit_one(const Submission& s);
  /// Arm the pump at the stream's head submission and record its seq.
  void arm_pump();
  /// Take the head submission, re-arm for the next one, then submit.
  void fire_pump();
  /// A scheduled failure injection: crash a random live node.
  void fire_failure();

  const SubstrateSnapshot& snapshot_;
  ManagerKind manager_kind_;
  std::uint64_t config_hash_ = 0;
  SimulationContext ctx_;
  std::unique_ptr<cluster::ClusterManager> manager_;
  metrics::MetricsCollector metrics_;
  app::IdSource ids_;
  std::vector<std::unique_ptr<app::Application>> apps_;

  // --- submission pump -----------------------------------------------------
  // The queue holds one future submission: the pump event at the stream's
  // head, armed iff the stream is not done.
  SubmissionStream stream_;
  std::uint64_t pump_seq_ = 0;

  // --- failure injection ---------------------------------------------------
  Rng failure_rng_{0};
  std::vector<cluster::AppHandle*> handles_;
  int failures_fired_ = 0;  ///< callbacks run (inc. dead-cluster no-ops)
  int nodes_failed_ = 0;    ///< actual crashes
  std::uint64_t first_failure_seq_ = 0;
};

/// Replay `snapshot` under `manager` and collect the figure summaries,
/// honouring config.checkpoint (periodic checkpoints + resume).
/// Thread-safe for concurrent calls sharing one snapshot.  A non-null
/// `control` observes progress and can cancel the run cooperatively
/// (throws RunCancelled); attaching one never changes the result.
ExperimentResult RunOnSnapshot(const SubstrateSnapshot& snapshot,
                               ManagerKind manager,
                               RunControl* control = nullptr);

}  // namespace custody::workload
