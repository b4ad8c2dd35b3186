// Task scheduling *within* an application.
//
// Custody deliberately leaves task placement to the application (paper
// Sec. V: "all the applications use the standard delay scheduling of Spark
// to accept resource offers and schedule tasks").  Three policies share one
// implementation:
//
//   kDelay             — delay scheduling (Zaharia et al., EuroSys'10): a
//                        job with only non-local ready input tasks skips its
//                        turn for up to `locality_wait` seconds before
//                        settling for a non-local executor.
//   kLocalityPreferred — prefer local tasks but never wait (wait = 0).
//   kFifo              — ignore locality entirely; first ready task wins.
//
// Downstream (shuffle) tasks have no locality constraint and always launch
// immediately.
//
// Every decision is a lookup against the application-maintained
// ReadyTaskIndex — O(jobs × log tasks) per pick, never a task scan.  The
// picks equal a scan of each job's tasks in stage order: index minima are
// the lowest ready task ids, and ids are assigned stage by stage.
#pragma once

#include <optional>
#include <vector>

#include "app/job.h"
#include "app/ready_index.h"
#include "common/names.h"

namespace custody::app {

enum class SchedulerKind { kDelay, kLocalityPreferred, kFifo };

inline constexpr KindName<SchedulerKind> kSchedulerNames[] = {
    {SchedulerKind::kDelay, "delay"},
    {SchedulerKind::kLocalityPreferred, "locality_preferred"},
    {SchedulerKind::kFifo, "fifo"}};

struct SchedulerConfig {
  SchedulerKind kind = SchedulerKind::kDelay;
  /// How long a job waits for a local slot before going remote (seconds).
  SimTime locality_wait = 3.0;
};

class TaskScheduler {
 public:
  /// `index` is the application's dispatch index; it must outlive the
  /// scheduler.
  TaskScheduler(SchedulerConfig config, const ReadyTaskIndex& index)
      : config_(config), index_(&index) {}

  struct Pick {
    TaskId task;
    bool local = false;
  };

  /// Choose a ready task for an idle executor on `node`.  `jobs` is the
  /// application's active job list in submission order.  When nothing may
  /// launch yet, `retry_at` (if set) is the earliest time a waiting job's
  /// locality timer expires.
  [[nodiscard]] std::optional<Pick> pick(NodeId node, SimTime now,
                                         const std::vector<Job*>& jobs,
                                         std::optional<SimTime>& retry_at);

  /// Bookkeeping after a launch chosen by pick(): resets the job's locality
  /// wait timer when the launch was local.
  void on_launched(Job& job, const Task& task);

  /// True when some ready input task of `job` would run locally on `node`.
  [[nodiscard]] bool has_local_ready_input(const Job& job, NodeId node) const {
    return index_->has_local_ready_input(job.id, node);
  }

  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

 private:
  SchedulerConfig config_;
  const ReadyTaskIndex* index_;
};

}  // namespace custody::app
