#include "svc/service.h"

#include <stdexcept>
#include <utility>

#include "cluster/manager_factory.h"
#include "svc/router.h"

namespace custody::svc {

using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::RunProgress;

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

ExperimentService::ExperimentService(int runners) {
  if (runners < 1) {
    throw std::invalid_argument("runners must be >= 1");
  }
  for (int i = 0; i < runners; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
}

ExperimentService::~ExperimentService() { shutdown(); }

std::uint64_t ExperimentService::submit(ExperimentConfig config) {
  workload::ValidateConfig(config);  // 400 now, not after queueing
  auto job = std::make_unique<Job>();
  job->config = std::move(config);
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw SessionBusy("service is shutting down");
    id = next_id_++;
    job->id = id;
    jobs_.emplace(id, std::move(job));
    queue_.push_back(id);
  }
  cv_.notify_one();
  return id;
}

JobInfo ExperimentService::info(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::out_of_range("no experiment " + std::to_string(id));
  }
  const Job& job = *it->second;
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.manager_name = cluster::ManagerName(job.config.manager);
  info.error = job.error;
  info.progress.events_processed =
      job.events.load(std::memory_order_relaxed);
  info.progress.sim_time = job.sim_time.load(std::memory_order_relaxed);
  info.progress.jobs_completed =
      job.jobs_completed.load(std::memory_order_relaxed);
  info.progress.jobs_retired =
      job.jobs_retired.load(std::memory_order_relaxed);
  return info;
}

ExperimentResult ExperimentService::result(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::out_of_range("no experiment " + std::to_string(id));
  }
  const Job& job = *it->second;
  if (job.state != JobState::kDone) {
    throw SessionBusy("experiment " + std::to_string(id) + " is " +
                      JobStateName(job.state) + ", not done");
  }
  return *job.result;
}

bool ExperimentService::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::out_of_range("no experiment " + std::to_string(id));
  }
  Job& job = *it->second;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    // A queued job's runner observes the flag at its first boundary check.
    job.control.request_cancel();
    return true;
  }
  return false;
}

ExperimentService::DeleteOutcome ExperimentService::destroy(std::uint64_t id) {
  // Runners hold a raw Job* only while the job is queued or running, and
  // only terminal jobs are erased here, so the erase can never free a job
  // a runner still touches.
  std::unique_ptr<Job> reclaimed;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::out_of_range("no experiment " + std::to_string(id));
  }
  Job& job = *it->second;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    job.control.request_cancel();
    return DeleteOutcome::kCancelRequested;
  }
  reclaimed = std::move(it->second);  // freed after mu_ is released
  jobs_.erase(it);
  return DeleteOutcome::kRemoved;
}

void ExperimentService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && runners_.empty()) return;
    stopping_ = true;
    for (auto& [id, job] : jobs_) {
      (void)id;
      job->control.request_cancel();
    }
  }
  cv_.notify_all();
  for (std::thread& r : runners_) {
    if (r.joinable()) r.join();
  }
  runners_.clear();
}

void ExperimentService::runner_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left
      const std::uint64_t id = queue_.front();
      queue_.pop_front();
      job = jobs_.at(id).get();
      job->state = JobState::kRunning;
    }
    run_job(*job);
  }
}

void ExperimentService::run_job(Job& job) {
  JobState terminal = JobState::kDone;
  std::string error;
  std::unique_ptr<ExperimentResult> result;
  try {
    job.control.on_progress = [&job](const RunProgress& p) {
      job.events.store(p.events_processed, std::memory_order_relaxed);
      job.sim_time.store(p.sim_time, std::memory_order_relaxed);
      job.jobs_completed.store(p.jobs_completed, std::memory_order_relaxed);
      job.jobs_retired.store(p.jobs_retired, std::memory_order_relaxed);
    };
    result = std::make_unique<ExperimentResult>(
        workload::RunOnSnapshot(workload::SubstrateSnapshot::Build(job.config),
                                job.config.manager, &job.control));
  } catch (const workload::RunCancelled&) {
    terminal = JobState::kCancelled;
  } catch (const std::exception& e) {
    terminal = JobState::kFailed;
    error = e.what();
  } catch (...) {
    terminal = JobState::kFailed;
    error = "unknown error";
  }
  std::lock_guard<std::mutex> lock(mu_);
  job.state = terminal;
  job.error = std::move(error);
  job.result = std::move(result);
}

}  // namespace custody::svc
