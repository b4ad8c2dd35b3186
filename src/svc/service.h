// The experiment registry + runner pool behind POST/GET/DELETE
// /experiments.
//
// Threading model: submit() validates on the calling (HTTP worker) thread
// — a bad config 400s immediately — then enqueues the job for a fixed pool
// of runner threads.  Each runner builds the SubstrateSnapshot and drives
// RunOnSnapshot with the job's RunControl attached, publishing progress
// samples through atomics (readable lock-free by pollers) and the terminal
// state + result under the registry mutex.
//
// Determinism contract: the runner executes exactly
// RunOnSnapshot(Build(config), config.manager, &control), and attaching a
// control never changes results (pinned in sweep_test.cpp), so an
// HTTP-submitted config yields the bit-identical ExperimentResult a direct
// RunExperiment call produces — regardless of queueing order or which
// runner picks the job up (pinned in svc_test.cpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "workload/harness.h"

namespace custody::svc {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] const char* JobStateName(JobState state);

/// A poller's view of one job.
struct JobInfo {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::string manager_name;
  std::string error;  ///< non-empty iff kFailed
  workload::RunProgress progress;
};

class ExperimentService {
 public:
  /// Starts `runners` runner threads (>= 1).
  explicit ExperimentService(int runners);
  ~ExperimentService();

  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  /// Validate (throws std::invalid_argument with the field named) and
  /// enqueue; returns the job id.
  std::uint64_t submit(workload::ExperimentConfig config);

  /// Throws std::out_of_range on an unknown id.
  [[nodiscard]] JobInfo info(std::uint64_t id) const;

  /// The finished result; throws std::out_of_range on an unknown id and
  /// SessionBusy (→ 409) when the job has not reached kDone.
  [[nodiscard]] workload::ExperimentResult result(std::uint64_t id) const;

  /// Request cooperative cancellation.  True when the job was still
  /// cancellable (queued or running); false once terminal.  Throws
  /// std::out_of_range on an unknown id.
  bool cancel(std::uint64_t id);

  /// DELETE semantics in one atomic step: a live (queued/running) job gets
  /// a cancel request; a terminal job is erased, reclaiming its config,
  /// result and trace buffer.  Throws std::out_of_range on an unknown id.
  enum class DeleteOutcome { kCancelRequested, kRemoved };
  DeleteOutcome destroy(std::uint64_t id);

  /// Stop the pool: cancel every live job, drain, join.  Idempotent.
  void shutdown();

 private:
  struct Job {
    std::uint64_t id = 0;
    workload::ExperimentConfig config;
    JobState state = JobState::kQueued;
    std::string error;
    workload::RunControl control;
    // Progress mirror, written by the runner's on_progress callback and
    // read lock-free by pollers.
    std::atomic<std::uint64_t> events{0};
    std::atomic<double> sim_time{0.0};
    std::atomic<std::uint64_t> jobs_completed{0};
    std::atomic<std::uint64_t> jobs_retired{0};
    std::unique_ptr<workload::ExperimentResult> result;
  };

  void runner_loop();
  void run_job(Job& job);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::deque<std::uint64_t> queue_;
  std::vector<std::thread> runners_;
};

}  // namespace custody::svc
