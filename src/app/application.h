// The application driver — the simulator's stand-in for a Spark driver.
//
// An Application owns its jobs, compiles submitted JobSpecs into stages and
// tasks, schedules tasks onto the executors the cluster manager granted it
// (via delay scheduling by default), simulates their execution against the
// DFS and the network, and reports metrics.  It implements
// cluster::AppHandle, which is the entire surface a manager sees.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "app/job.h"
#include "app/scheduler.h"
#include "cluster/cluster.h"
#include "cluster/manager.h"
#include "common/rng.h"
#include "common/types.h"
#include "dfs/cache.h"
#include "dfs/dfs.h"
#include "metrics/metrics.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace custody::obs {
class Tracer;
}

namespace custody::app {

/// Experiment-wide id counters so task/job ids stay unique across
/// applications (and deterministic across runs).
struct IdSource {
  TaskId::value_type next_task = 0;
  JobId::value_type next_job = 0;
};

struct AppConfig {
  /// Dynamic managers (Custody, offers): release executors that have no
  /// ready work.  The standalone baseline keeps its static set forever.
  bool dynamic_executors = true;
  /// Custody's adaptive re-allocation (paper Sec. IV-C): an idle executor
  /// with no local runnable work is handed back when the cluster pool holds
  /// an executor on a node that stores one of our uncovered input blocks,
  /// letting the manager swap it for the right one.
  bool locality_swap = true;
  SchedulerConfig scheduler;
  /// How many distinct source nodes a shuffle task fetches from.
  int shuffle_fan_in = 3;

  // --- speculative execution (straggler mitigation, paper Sec. IV-B) ------
  /// Clone slow input tasks onto idle executors; first attempt to finish
  /// wins, the other is cancelled.
  bool speculation = false;
  /// A running task is slow when its elapsed time exceeds this multiple of
  /// the mean duration of its stage's finished tasks.
  double speculation_multiplier = 1.5;
  /// Minimum finished siblings before durations are trusted.  At least 1,
  /// with a non-negative multiplier: a task launched now is never slow.
  int speculation_min_finished = 3;

  /// Steady-state retirement: destroy a job (stages and task records
  /// included) the moment it finishes, returning its memory to the
  /// application's job pool so million-job runs hold only live jobs.  Off
  /// by default — tests and figure scripts read finished jobs back via
  /// find_job.
  bool retire_finished_jobs = false;
};

/// Deterministic work counters of an application's kick and release check:
/// what they enumerated, not what they decided.  Lifetime totals, 64-bit.
struct WorkCounters {
  std::uint64_t kicks = 0;  ///< kick walks run
  /// Free executors the kick walk visits, plus every node or executor a
  /// kick enumerates to find them.
  std::uint64_t kick_probes = 0;
  std::uint64_t launches = 0;  ///< primary and clone attempts started
  std::uint64_t release_checks = 0;
  /// pool_has_useful_executor verdicts computed, and the ready blocks
  /// they walked.
  std::uint64_t release_verdicts = 0;
  std::uint64_t release_blocks_walked = 0;
  /// Executor ids copied out of the cluster's free-held set.
  std::uint64_t free_ids_copied = 0;

  WorkCounters& operator+=(const WorkCounters& other);
};

class Application final : public cluster::AppHandle {
 public:
  Application(AppId id, sim::Simulator& sim, net::Network& net,
              const dfs::Dfs& dfs, cluster::Cluster& cluster,
              metrics::MetricsCollector& metrics, IdSource& ids, Rng rng,
              AppConfig config);
  ~Application() override;

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  /// Must be called once before the first submit_job.
  void attach_manager(cluster::ClusterManager& manager);

  /// Optional: an executor-side block cache shared across applications.
  /// Remote reads populate it; cached blocks count as local afterwards.
  void attach_cache(dfs::BlockCache* cache);

  /// Optional span tracing (null disables; the default).  Must be attached
  /// before attach_manager so grant-time bookkeeping is complete.  Tracing
  /// consumes no RNG and schedules nothing: results are bit-identical with
  /// or without it.
  void attach_tracer(obs::Tracer* tracer);

  /// A user submits an analytic request; Custody's allocation hook runs
  /// before the job's tasks become launchable (paper Sec. IV-C).
  JobId submit_job(const JobSpec& spec);

  // --- cluster::AppHandle --------------------------------------------------
  [[nodiscard]] AppId id() const override { return id_; }
  [[nodiscard]] std::vector<core::JobDemand> pending_demand() const override;
  [[nodiscard]] int wanted_executors() const override;
  [[nodiscard]] core::LocalityStats locality() const override;
  void set_share(int share) override { share_ = share; }
  void on_executors_granted(std::span<const ExecutorId> execs) override;
  void on_executor_lost(ExecutorId exec) override;
  bool consider_offer(ExecutorId exec, NodeId node) override;

  // --- introspection (tests, benches) --------------------------------------
  [[nodiscard]] int share() const { return share_; }
  [[nodiscard]] int executors_held() const;
  [[nodiscard]] std::vector<ExecutorId> held_executors() const;
  /// Why input tasks launched the way they did (diagnostics/ablation).
  /// 64-bit: lifetime counters, which streaming runs push past 2^32.
  struct LaunchBreakdown {
    std::uint64_t local = 0;
    /// Non-local although a held executor's node stored the block (the
    /// local slot was busy and the delay-scheduling wait ran out).
    std::uint64_t covered_busy = 0;
    /// Non-local because no held executor was on any replica node.
    std::uint64_t uncovered = 0;
  };
  [[nodiscard]] const LaunchBreakdown& launch_breakdown() const {
    return breakdown_;
  }

  [[nodiscard]] std::uint64_t jobs_completed() const {
    return jobs_completed_;
  }
  [[nodiscard]] std::uint64_t speculative_launches() const {
    return spec_launches_;
  }
  [[nodiscard]] std::uint64_t speculative_wins() const { return spec_wins_; }
  [[nodiscard]] const WorkCounters& work() const { return work_; }
  /// Jobs destroyed through the pool (0 unless retire_finished_jobs).
  [[nodiscard]] std::uint64_t jobs_retired() const { return jobs_retired_; }
  /// High-water mark of live task records — the bounded-memory witness for
  /// steady-state runs (submitted-minus-retired stays small).
  [[nodiscard]] std::uint64_t peak_live_tasks() const {
    return peak_live_tasks_;
  }
  [[nodiscard]] bool idle() const { return active_jobs_.empty(); }
  /// Null for unknown ids — including jobs already retired.
  [[nodiscard]] const Job* find_job(JobId id) const;

  // --- snapshot/restore ----------------------------------------------------
  /// Serialize jobs, tasks (with typed pending-timer descriptors), the RNG,
  /// counters and the retry-event descriptor.  The executor ledger lives in
  /// the Cluster; flow callbacks are rebuilt from FlowLabels on restore.
  void SaveTo(snap::SnapshotWriter& w) const;
  /// Rebuild from a snapshot taken on an identically-configured app.  Jobs
  /// are re-created in id order, pending timers re-armed under their
  /// original sequence numbers, and the ready-task index reconstructed from
  /// the restored task states.
  void RestoreFrom(snap::SnapshotReader& r);
  /// Network restore hook: rebuild the completion callback a live flow had
  /// when the snapshot was taken, from the label the flow was started with.
  [[nodiscard]] net::Network::CompletionFn rebuild_flow_callback(
      FlowId flow, const net::FlowLabel& label, NodeId src, NodeId dst);

 private:
  /// The snapshot layout; returns whether the retry event is armed.
  template <class Self, class Io>
  static bool Fields(Self& self, Io& io);

  Task& task(TaskId id);
  const Task& task(TaskId id) const;
  /// Nullptr for erased tasks (finished jobs) — used by stale callbacks.
  Task* find_task(TaskId id);
  Job& job(JobId id);
  /// Abort all in-flight work of a running task and make it ready again.
  void reset_task(Task& t);

  /// A slow running input task a free slot may clone (see kick_walk).
  struct Straggler {
    TaskId task;
    BlockId block;
  };

  /// Try to put every idle held executor to work.
  void kick();
  /// The kick sweep over the changed edges of the task-executor locality
  /// graph: it visits launches, clone offers and the cluster's
  /// free-watched executors (free ones on nodes with local ready input),
  /// not every free executor, so its visits are at most 2 * launches + 1.
  void kick_walk(std::optional<SimTime>& earliest_retry);
  /// Install the ready index's node listener, which keeps the cluster's
  /// watched nodes for this app equal to the index's local-ready set.
  void watch_local_ready_nodes();
  /// Appends every current straggler candidate in (job, task) order,
  /// refreshing stale per-job slow thresholds.
  void collect_stragglers(std::vector<Straggler>& out);
  /// Clone the first candidate local to `node` (else the first candidate)
  /// onto `exec`, and drop it from `candidates`.  No-op when empty.
  void offer_to_straggler(ExecutorId exec, NodeId node,
                          std::vector<Straggler>& candidates);
  /// Keep `j`'s running_inputs in step with `t` entering or leaving
  /// kRunning (speculation only).
  void track_running_input(Job& j, const Task& t, bool running);
  void launch(Task& t, ExecutorId exec);
  void launch_clone(Task& t, ExecutorId exec);
  /// Start an input attempt's block read: a timer for a local read, a
  /// network flow from a replica or cached copy for a remote one.
  void start_input_read(Task& t, int attempt);
  /// The attempt's read is done: run its compute phase.  A no-op once the
  /// task stopped running or the clone was aborted.
  void start_compute(Task& t, int attempt);
  /// Cancel the attempt's timer and flow and free its executor (when it is
  /// still alive).
  void abort_attempt(Attempt& a);
  void finish_task(Task& t);
  /// An attempt (0 = primary, 1 = clone) delivered the task's result.
  void finish_attempt(Task& t, int attempt);
  void complete_stage(Job& j, Stage& stage);
  void mark_stage_ready(Job& j, Stage& stage);
  void finish_job(Job& j);
  void maybe_release_idle_executors();
  void arm_retry(SimTime at);
  /// The epoch-guarded callback a (kind, attempt) timer descriptor stands
  /// for — shared by live scheduling and snapshot re-arm so both paths run
  /// byte-identical logic.
  [[nodiscard]] sim::EventFn timer_fn(TaskId id, std::uint32_t epoch,
                                      TimerKind kind, int attempt);
  /// Schedule an attempt's timer and record its snapshot descriptor (kind,
  /// time, original sequence number).
  void arm_timer(Task& t, int attempt, TimerKind kind, double delay);
  /// The epoch-guarded completion callback of a flow started with `label`
  /// towards `dst` — shared by the live start_flow sites and
  /// rebuild_flow_callback, as timer_fn is for timers.
  [[nodiscard]] net::Network::CompletionFn flow_fn(const net::FlowLabel& label,
                                                   NodeId dst);
  /// Throws snap::SnapshotError unless every index the restored jobs and
  /// tasks follow — jobs, stages, tasks, nodes, executors, blocks — is in
  /// range and consistent.
  void validate_restored() const;
  /// True when an *unallocated* executor sits on a replica node of a ready
  /// input task that no held executor can serve locally.  Adds the ready
  /// blocks it walked to `blocks_walked`.
  [[nodiscard]] bool pool_has_useful_executor(
      std::uint64_t& blocks_walked) const;
  /// Disk replicas, plus cached copies when a cache is attached.
  [[nodiscard]] const std::vector<NodeId>& locations_of(BlockId block) const;

  AppId id_;
  sim::Simulator& sim_;
  net::Network& net_;
  const dfs::Dfs& dfs_;
  cluster::Cluster& cluster_;
  metrics::MetricsCollector& metrics_;
  IdSource& ids_;
  Rng rng_;
  AppConfig config_;
  cluster::ClusterManager* manager_ = nullptr;
  dfs::BlockCache* cache_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Tracing only: when each held executor last became idle, so the
  /// analyzer can split ready→launch into executor-wait vs scheduler
  /// delay.  Maintained solely when a tracer is attached (read-only
  /// bookkeeping; never feeds scheduling decisions).
  std::unordered_map<ExecutorId, SimTime> exec_idle_since_;
  /// Reused buffer for a kick's straggler candidates.
  std::vector<Straggler> straggler_scratch_;
  /// Dispatch index, kept fresh via task state transitions here plus Dfs
  /// replica / BlockCache change listeners; its node listener keeps the
  /// cluster's watched nodes for this app.  Declared before scheduler_,
  /// which holds a pointer to it.
  ReadyTaskIndex index_;
  TaskScheduler scheduler_;
  dfs::Dfs::ListenerId dfs_listener_ = 0;
  dfs::BlockCache::ListenerId cache_listener_ = 0;
  int running_tasks_ = 0;

  int share_ = 0;
  TaskTable tasks_;
  /// Job storage; a job's address is stable while it is live.
  std::unordered_map<JobId, std::unique_ptr<Job>> jobs_by_id_;
  std::vector<Job*> active_jobs_;  // submission order (FIFO for scheduling)
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_retired_ = 0;
  std::uint64_t peak_live_tasks_ = 0;
  std::uint64_t spec_launches_ = 0;
  std::uint64_t spec_wins_ = 0;
  core::LocalityStats achieved_;  // over launched input work
  LaunchBreakdown breakdown_;
  WorkCounters work_;
  sim::EventHandle retry_event_;
  SimTime retry_time_ = -1.0;
  /// Snapshot descriptor of the pending retry event.  The armed time is
  /// recorded separately from retry_time_: the queue holds now + max(0,
  /// at - now), which can differ from `at` in the last ulp.
  SimTime retry_armed_time_ = 0.0;
  std::uint64_t retry_seq_ = 0;
  bool in_kick_ = false;
};

}  // namespace custody::app
