#include "app/scheduler.h"

#include <algorithm>

#include "common/simtime.h"

namespace custody::app {

// Tolerance when testing locality-wait expiry: the retry event fires at
// exactly wait_start + wait, where (wait_start + wait) - wait_start can
// round to slightly less than wait and would otherwise re-arm a zero-delay
// retry forever.  The tolerance must scale with the clock (TimeEpsilonAt):
// at steady-state horizons one ulp of `now` exceeds any absolute constant,
// and an absolute epsilon re-creates exactly that retry loop.

std::optional<TaskScheduler::Pick> TaskScheduler::pick(
    NodeId node, SimTime now, const std::vector<Job*>& jobs,
    std::optional<SimTime>& retry_at) {
  retry_at.reset();
  if (config_.kind == SchedulerKind::kLocalityPreferred) {
    // Never wait, but look in *every* job for a local task before giving
    // the slot to any non-local one — otherwise an earlier job's remote
    // task steals the slot a later job could have used locally.
    for (Job* job_ptr : jobs) {
      const TaskId local = index_->first_local_input(job_ptr->id, node);
      if (local.valid()) return Pick{local, true};
    }
    for (Job* job_ptr : jobs) {
      // First ready task in stage order == lowest id (ids are assigned
      // stage by stage at submit time).  No job has a local ready input on
      // `node` — the first pass returned otherwise — so the pick is never
      // local here.
      const TaskId input = index_->first_ready_input(job_ptr->id);
      const TaskId other = index_->first_ready_other(job_ptr->id);
      TaskId choice = input;
      if (!choice.valid() || (other.valid() && other < choice)) choice = other;
      if (choice.valid()) return Pick{choice, false};
    }
    return std::nullopt;
  }

  for (Job* job_ptr : jobs) {
    Job& job = *job_ptr;
    const TaskId first_ready_input = index_->first_ready_input(job.id);
    const TaskId local_input = index_->first_local_input(job.id, node);

    if (config_.kind == SchedulerKind::kFifo) {
      // Locality-oblivious: first ready task in stage order.  An input
      // choice is the lowest ready input id, so it is local exactly when
      // it coincides with the lowest *local* ready input id.
      const TaskId choice = first_ready_input.valid()
                                ? first_ready_input
                                : index_->first_ready_other(job.id);
      if (choice.valid()) return Pick{choice, choice == local_input};
      continue;
    }

    if (local_input.valid()) return Pick{local_input, true};
    const TaskId first_ready_other = index_->first_ready_other(job.id);
    if (first_ready_other.valid()) return Pick{first_ready_other, false};

    if (first_ready_input.valid()) {
      // Only non-local input work remains in this job.
      if (config_.locality_wait <= 0.0) {
        return Pick{first_ready_input, false};
      }
      if (!job.waiting_since_set()) {
        job.wait_start = now;  // the job starts its locality wait
      } else if (now - job.wait_start >= config_.locality_wait - TimeEpsilonAt(now)) {
        return Pick{first_ready_input, false};  // wait expired: go remote
      }
      const SimTime expires = job.wait_start + config_.locality_wait;
      if (!retry_at || expires < *retry_at) retry_at = expires;
    }
  }
  return std::nullopt;
}

void TaskScheduler::on_launched(Job& job, const Task& task) {
  if (!task.is_input()) return;
  if (task.local) {
    // Delay scheduling resets the wait once the job launches locally; a
    // non-local launch keeps the expired timer so follow-up tasks in the
    // same job do not each wait the full period again.
    job.wait_start = -1.0;
  }
}

}  // namespace custody::app
