#include "metrics/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "common/snapshot.h"

namespace custody::metrics {

void MetricsCollector::enable_streaming() {
  if (!tasks_.empty() || !jobs_.empty()) {
    throw std::logic_error(
        "MetricsCollector: enable_streaming after records were collected");
  }
  streaming_ = true;
}

void MetricsCollector::record_task(const TaskRecord& record) {
  if (record.ready_time < warmup_) return;
  if (streaming_) {
    if (record.is_input) sched_delay_stream_.add(record.scheduler_delay());
    return;
  }
  tasks_.push_back(record);
}

void MetricsCollector::record_job(const JobRecord& record) {
  makespan_ = std::max(makespan_, record.finish_time);
  if (record.submit_time < warmup_) return;
  ++jobs_recorded_;
  input_tasks_total_ += static_cast<std::uint64_t>(record.input_tasks);
  input_tasks_local_ += static_cast<std::uint64_t>(record.local_input_tasks);
  const bool perfect = record.perfectly_local();
  if (perfect) ++perfectly_local_jobs_;
  const auto a = static_cast<std::size_t>(record.app.value());
  if (a >= app_total_jobs_.size()) {
    app_total_jobs_.resize(a + 1, 0);
    app_local_jobs_.resize(a + 1, 0);
  }
  ++app_total_jobs_[a];
  if (perfect) ++app_local_jobs_[a];

  if (streaming_) {
    locality_stream_.add(record.locality_percent());
    jct_stream_.add(record.completion_time());
    input_stage_stream_.add(record.input_stage_duration());
    return;
  }
  jobs_.push_back(record);
}

Summary MetricsCollector::job_locality_summary() const {
  if (streaming_) return locality_stream_.summarize();
  return Summarize(per_job_locality_percent());
}

Summary MetricsCollector::jct_summary() const {
  if (streaming_) return jct_stream_.summarize();
  return Summarize(job_completion_times());
}

Summary MetricsCollector::input_stage_summary() const {
  if (streaming_) return input_stage_stream_.summarize();
  return Summarize(input_stage_durations());
}

Summary MetricsCollector::sched_delay_summary() const {
  if (streaming_) return sched_delay_stream_.summarize();
  return Summarize(input_scheduler_delays());
}

std::vector<double> MetricsCollector::per_job_locality_percent() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const JobRecord& job : jobs_) out.push_back(job.locality_percent());
  return out;
}

double MetricsCollector::overall_input_locality_percent() const {
  return input_tasks_total_ == 0
             ? 0.0
             : 100.0 * static_cast<double>(input_tasks_local_) /
                   static_cast<double>(input_tasks_total_);
}

double MetricsCollector::local_job_percent() const {
  return jobs_recorded_ == 0
             ? 0.0
             : 100.0 * static_cast<double>(perfectly_local_jobs_) /
                   static_cast<double>(jobs_recorded_);
}

std::vector<double> MetricsCollector::job_completion_times() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const JobRecord& job : jobs_) out.push_back(job.completion_time());
  return out;
}

std::vector<double> MetricsCollector::input_stage_durations() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const JobRecord& job : jobs_) out.push_back(job.input_stage_duration());
  return out;
}

std::vector<double> MetricsCollector::input_scheduler_delays() const {
  std::vector<double> out;
  for (const TaskRecord& task : tasks_) {
    if (task.is_input) out.push_back(task.scheduler_delay());
  }
  return out;
}

std::vector<double> MetricsCollector::per_app_local_job_fraction(
    std::size_t num_apps) const {
  std::vector<double> out(num_apps, 0.0);
  const std::size_t known = std::min(num_apps, app_total_jobs_.size());
  for (std::size_t a = 0; a < known; ++a) {
    out[a] = app_total_jobs_[a] == 0
                 ? 0.0
                 : static_cast<double>(app_local_jobs_[a]) /
                       static_cast<double>(app_total_jobs_[a]);
  }
  return out;
}

template <class Self, class Io>
void MetricsCollector::Fields(Self& self, Io& io) {
  bool streaming = self.streaming_;
  io.b(streaming);
  if (streaming != self.streaming_) {
    throw snap::SnapshotError(
        "MetricsCollector mode mismatch: snapshot was taken in " +
        std::string(streaming ? "streaming" : "exact") +
        " mode but this collector is in " +
        std::string(self.streaming_ ? "streaming" : "exact") + " mode");
  }
  io.f64(self.warmup_);

  snap::Seq(io, self.tasks_, [&io](auto& t) {
    io.u32(t.app);
    io.u32(t.job);
    io.i64(t.stage);
    io.b(t.is_input);
    io.b(t.local);
    io.f64(t.ready_time);
    io.f64(t.launch_time);
    io.f64(t.finish_time);
  });
  snap::Seq(io, self.jobs_, [&io](auto& j) {
    io.u32(j.app);
    io.u32(j.job);
    io.f64(j.submit_time);
    io.f64(j.input_stage_finish);
    io.f64(j.finish_time);
    io.i64(j.input_tasks);
    io.i64(j.local_input_tasks);
  });
  for (auto* stream : {&self.locality_stream_, &self.jct_stream_,
                       &self.input_stage_stream_, &self.sched_delay_stream_}) {
    io.layer(*stream);
  }

  io.f64(self.makespan_);
  for (auto* count : {&self.jobs_recorded_, &self.perfectly_local_jobs_,
                      &self.input_tasks_total_, &self.input_tasks_local_}) {
    io.u64(*count);
  }
  for (auto* per_app : {&self.app_local_jobs_, &self.app_total_jobs_}) {
    snap::Seq(io, *per_app, [&io](auto& v) { io.u64(v); });
  }
}

void MetricsCollector::SaveTo(snap::SnapshotWriter& w) const {
  Fields(*this, w);
}

void MetricsCollector::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
}

}  // namespace custody::metrics
