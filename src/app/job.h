// The job model: a DAG of stages, each a set of parallel tasks.
//
// Stage 0 is the *input* (map) stage — every task reads one DFS block, and
// data locality only matters there (paper Sec. III-A: input volume dwarfs
// intermediate volume and downstream tasks read from many nodes anyway).
// Downstream stages shuffle a per-workload fraction of the input bytes from
// the nodes where the previous stage ran.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace custody::app {

struct Task;

/// The application's task table: every live task keyed by id.
using TaskTable = std::unordered_map<TaskId, Task>;

enum class TaskState { kBlocked, kReady, kRunning, kFinished };

/// Which callback a task attempt's pending simulator timer will run.
/// Recorded alongside every scheduled timer so a snapshot can re-arm the
/// event from data (closures cannot be serialized): kRead completes the
/// attempt's local read and starts compute, kCompute finishes the attempt.
enum class TimerKind : std::uint8_t { kNone = 0, kRead = 1, kCompute = 2 };

/// One run of a task on one executor.  Every launched task runs a primary
/// attempt (attempt 0); a slow input task may also run a speculative clone
/// (attempt 1).  Both attempts go through the same read, compute, timer and
/// abort code, and the first to finish delivers the task's result.
struct Attempt {
  ExecutorId executor;
  bool local = false;
  /// When this attempt's compute phase began (read/fetch done).  Inert
  /// bookkeeping for the tracing layer's read-vs-compute split.
  SimTime compute_start = 0.0;

  // --- cancellable in-flight work -----------------------------------------
  sim::EventHandle pending_event;  ///< local read or compute timer
  FlowId pending_flow;             ///< remote input read in flight
  /// Snapshot descriptor of pending_event: which callback it runs and its
  /// (time, original sequence number).  kNone whenever no timer is armed.
  TimerKind pending_kind = TimerKind::kNone;
  SimTime pending_time = 0.0;
  std::uint64_t pending_seq = 0;
};

/// A task is its primary attempt: the Attempt base is attempt 0, and its
/// executor, locality and compute start are the task's.  A winning clone is
/// copied over it, so after a finish the base always holds the winner.
struct Task : Attempt {
  TaskId id;
  JobId job;
  int stage = 0;
  int index = 0;  ///< position within the stage

  /// Input tasks only: the block this task must read (d_ijk).
  BlockId block;
  double input_bytes = 0.0;
  double compute_secs = 0.0;

  TaskState state = TaskState::kBlocked;
  SimTime ready_time = 0.0;
  SimTime launch_time = 0.0;
  SimTime finish_time = 0.0;
  /// Shuffle fetches still in flight (downstream tasks).
  int fetches_outstanding = 0;
  /// Downstream tasks: nodes this task pulls its shuffle input from,
  /// chosen when the task becomes ready.
  std::vector<NodeId> fetch_sources;

  /// Incremented whenever the task is reset (failure re-execution); stale
  /// event/flow callbacks compare epochs and drop themselves.
  std::uint32_t epoch = 0;

  /// The speculative clone (attempt 1; input tasks only, straggler
  /// mitigation), running while spec_active.
  Attempt clone;
  bool spec_active = false;

  [[nodiscard]] bool is_input() const { return stage == 0; }
  /// Attempt 0 (the primary) or 1 (the clone).
  [[nodiscard]] Attempt& attempt(int i) {
    return i == 0 ? static_cast<Attempt&>(*this) : clone;
  }
};

/// Blueprint for one downstream (shuffle) stage.
struct ShuffleStageSpec {
  int num_tasks = 1;
  /// Total bytes this stage pulls from the previous stage's outputs.
  double shuffle_bytes = 0.0;
  double compute_secs_per_task = 0.0;
};

/// Blueprint for a job, produced by the workload generators.  The input
/// stage is implied: one task per block of `input_file`.
struct JobSpec {
  std::string name;
  FileId input_file;
  /// CPU time of an input task per byte read (so partial blocks scale).
  double input_compute_secs_per_byte = 0.0;
  std::vector<ShuffleStageSpec> downstream;
};

struct Stage {
  int index = 0;
  std::vector<TaskId> tasks;
  int finished = 0;
  /// When mark_stage_ready readied this stage's tasks (== submit time for
  /// stage 0, == previous stage's completion instant otherwise).
  SimTime ready_time = 0.0;
  /// Nodes where this stage's tasks ran (shuffle sources for the next one).
  std::vector<NodeId> output_nodes;

  [[nodiscard]] bool complete() const {
    return finished == static_cast<int>(tasks.size());
  }
};

struct Job {
  JobId id;
  AppId app;
  std::string name;
  FileId input_file;
  std::vector<Stage> stages;
  SimTime submit_time = 0.0;
  SimTime input_stage_finish = 0.0;
  SimTime finish_time = 0.0;
  bool finished = false;
  int input_tasks = 0;
  int local_input_tasks = 0;
  int launched_input_tasks = 0;
  /// Delay scheduling: when this job first had to skip for locality.
  SimTime wait_start = -1.0;

  // --- straggler candidate index (speculation only) -----------------------
  // Derived from task states, so never serialized: Application rebuilds it
  // on restore.
  /// Running input tasks, ascending id (== input-stage order).
  std::vector<TaskId> running_inputs;
  /// Speculation's slow threshold, cached against the input stage's
  /// `finished` count it was computed at (-1: not computed yet).
  double slow_after = 0.0;
  int slow_after_finished = -1;

  [[nodiscard]] bool waiting_since_set() const { return wait_start >= 0.0; }
};

}  // namespace custody::app
