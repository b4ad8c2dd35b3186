#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/snapshot.h"

namespace custody::workload {

std::vector<Submission> GenerateMixedTrace(
    const std::vector<WorkloadKind>& kinds, const TraceConfig& config,
    Rng& rng) {
  if (config.num_apps <= 0 || config.jobs_per_app <= 0) {
    throw std::invalid_argument(
        "GenerateMixedTrace: apps and jobs must be > 0");
  }
  if (kinds.empty()) {
    throw std::invalid_argument("GenerateMixedTrace: need at least one kind");
  }
  const ZipfDistribution zipf(static_cast<std::size_t>(config.files_per_kind),
                              config.zipf_skew);
  std::vector<Submission> trace;
  trace.reserve(static_cast<std::size_t>(config.num_apps) *
                config.jobs_per_app);
  for (int a = 0; a < config.num_apps; ++a) {
    SimTime t = 0.0;
    for (int j = 0; j < config.jobs_per_app; ++j) {
      t += rng.exponential(config.mean_interarrival);
      Submission s;
      s.time = t;
      s.app_index = a;
      s.kind = kinds.size() == 1 ? kinds.front()
                                 : kinds[rng.index(kinds.size())];
      s.file_index = zipf(rng);
      trace.push_back(s);
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Submission& a, const Submission& b) {
                     return a.time < b.time;
                   });
  return trace;
}

// ---------------------------------------------------------------------------
// SubmissionStream
// ---------------------------------------------------------------------------

SubmissionStream::SubmissionStream(std::vector<WorkloadKind> kinds,
                                   const TraceConfig& trace,
                                   const SteadyStateConfig& steady,
                                   const Rng& base)
    : kinds_(std::move(kinds)),
      trace_(trace),
      steady_(steady),
      zipf_(static_cast<std::size_t>(trace.files_per_kind), trace.zipf_skew) {
  if (trace_.num_apps <= 0 || trace_.jobs_per_app <= 0) {
    throw std::invalid_argument(
        "SubmissionStream: apps and jobs must be > 0");
  }
  if (kinds_.empty()) {
    throw std::invalid_argument("SubmissionStream: need at least one kind");
  }
  apps_.resize(static_cast<std::size_t>(trace_.num_apps));
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    apps_[a].rng = base.fork(static_cast<std::uint64_t>(a));
    apps_[a].remaining = trace_.jobs_per_app;
    advance(a);
  }
  total_jobs_ = static_cast<std::uint64_t>(trace_.num_apps) *
                static_cast<std::uint64_t>(trace_.jobs_per_app);
}

void SubmissionStream::advance(std::size_t a) {
  AppState& app = apps_[a];
  const bool had_next = app.has_next;
  if (app.remaining <= 0) {
    app.has_next = false;
    if (had_next) --live_apps_;
    return;
  }
  double dt = app.rng.exponential(trace_.mean_interarrival);
  if (steady_.diurnal_amplitude > 0.0) {
    // Scale the instantaneous rate by 1 + A·sin(2πt/T): a draw made when
    // the rate is k× nominal lands k× sooner.  A < 1 keeps the divisor
    // positive.
    const double phase =
        2.0 * std::numbers::pi * app.clock / steady_.diurnal_period;
    dt /= 1.0 + steady_.diurnal_amplitude * std::sin(phase);
  }
  // What-if rate perturbation (svc session forks): scales every draw made
  // after set_rate_scale; 1.0 (the default) is a no-op, so unperturbed
  // streams are untouched.
  dt /= rate_scale_;
  app.clock += dt;
  app.next.time = app.clock;
  app.next.app_index = static_cast<int>(a);
  app.next.kind = kinds_.size() == 1
                      ? kinds_.front()
                      : kinds_[app.rng.index(kinds_.size())];
  app.next.file_index = zipf_(app.rng);
  --app.remaining;
  app.has_next = true;
  if (!had_next) ++live_apps_;
}

void SubmissionStream::set_rate_scale(double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("SubmissionStream: rate scale must be > 0");
  }
  rate_scale_ = factor;
}

std::size_t SubmissionStream::earliest() const {
  std::size_t best = apps_.size();
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    if (!apps_[a].has_next) continue;
    if (best == apps_.size() || apps_[a].next.time < apps_[best].next.time) {
      best = a;  // ties break toward the lower app index
    }
  }
  if (best == apps_.size()) {
    throw std::logic_error("SubmissionStream: peek/next past the end");
  }
  return best;
}

const Submission& SubmissionStream::peek() const {
  return apps_[earliest()].next;
}

Submission SubmissionStream::next() {
  const std::size_t a = earliest();
  const Submission out = apps_[a].next;
  advance(a);
  ++emitted_;
  return out;
}

void SubmissionStream::SaveTo(snap::SnapshotWriter& w) const {
  w.size(apps_.size());
  for (const AppState& app : apps_) {
    app.rng.SaveTo(w);
    w.f64(app.clock);
    w.i64(app.remaining);
    w.b(app.has_next);
    w.f64(app.next.time);
    w.i64(app.next.app_index);
    w.u8(static_cast<std::uint8_t>(app.next.kind));
    w.u64(app.next.file_index);
  }
  w.u64(live_apps_);
  w.u64(total_jobs_);
  w.u64(emitted_);
  w.f64(rate_scale_);
}

void SubmissionStream::RestoreFrom(snap::SnapshotReader& r) {
  const std::size_t n = r.size();
  if (n != apps_.size()) {
    throw snap::SnapshotError(
        "SubmissionStream app count mismatch: snapshot has " +
        std::to_string(n) + ", stream was built with " +
        std::to_string(apps_.size()));
  }
  for (AppState& app : apps_) {
    app.rng.RestoreFrom(r);
    app.clock = r.f64();
    app.remaining = static_cast<int>(r.i64());
    app.has_next = r.b();
    app.next.time = r.f64();
    app.next.app_index = static_cast<int>(r.i64());
    app.next.kind = static_cast<WorkloadKind>(r.u8());
    app.next.file_index = static_cast<std::size_t>(r.u64());
  }
  live_apps_ = static_cast<std::size_t>(r.u64());
  total_jobs_ = r.u64();
  emitted_ = r.u64();
  rate_scale_ = r.f64();
  if (!(rate_scale_ > 0.0)) {
    throw snap::SnapshotError("SubmissionStream rate scale must be > 0");
  }
}

std::vector<Submission> DrainStream(SubmissionStream stream) {
  std::vector<Submission> out;
  out.reserve(stream.total_jobs());
  while (!stream.done()) out.push_back(stream.next());
  return out;
}

}  // namespace custody::workload
