#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/snapshot.h"

namespace custody::workload {

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
  Rng shared = base;  // the classic schedule's one rng
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    if (steady_.enabled) {
      apps_[a].rng = base.fork(static_cast<std::uint64_t>(a));
    } else {
      // Step past application a-1's draws: the classic schedule draws the
      // applications one after another from one rng.
      for (int j = 0; a > 0 && j < trace_.jobs_per_app; ++j) {
        (void)draw(shared);
      }
      apps_[a].rng = shared;
    }
    apps_[a].remaining = trace_.jobs_per_app;
    advance(a);
  }
}

SubmissionStream::Draw SubmissionStream::draw(Rng& rng) const {
  Draw d;
  d.gap = rng.exponential(trace_.mean_interarrival);
  d.kind = kinds_.size() == 1 ? kinds_.front()
                              : kinds_[rng.index(kinds_.size())];
  d.file_index = zipf_(rng);
  return d;
}

void SubmissionStream::advance(std::size_t a) {
  AppState& app = apps_[a];
  const bool had_next = app.has_next;
  if (app.remaining <= 0) {
    app.has_next = false;
    if (had_next) --live_apps_;
    return;
  }
  const Draw d = draw(app.rng);
  double dt = d.gap;
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
  app.next = {app.clock, static_cast<int>(a), d.kind, d.file_index};
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

template <class Self, class Io>
void SubmissionStream::Fields(Self& self, Io& io) {
  std::size_t n = self.apps_.size();
  io.size(n);
  if (n != self.apps_.size()) {
    throw snap::SnapshotError(
        "SubmissionStream app count mismatch: snapshot has " +
        std::to_string(n) + ", stream was built with " +
        std::to_string(self.apps_.size()));
  }
  for (auto& app : self.apps_) {
    io.layer(app.rng);
    io.f64(app.clock);
    io.i64(app.remaining);
    io.b(app.has_next);
    // A pending submission's time is its app's clock, its app the slot.
    if (app.has_next) {
      auto kind = static_cast<std::uint8_t>(app.next.kind);
      io.u8(kind);
      io.u64(app.next.file_index);
      if constexpr (Io::kLoading) {
        app.next.kind = static_cast<WorkloadKind>(kind);
      }
    }
  }
  io.u64(self.emitted_);
  io.f64(self.rate_scale_);
}

void SubmissionStream::SaveTo(snap::SnapshotWriter& w) const {
  Fields(*this, w);
}

void SubmissionStream::RestoreFrom(snap::SnapshotReader& r) {
  Fields(*this, r);
  live_apps_ = 0;
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    AppState& app = apps_[a];
    if (!app.has_next) continue;
    const auto reject = [a](const std::string& what) {
      throw snap::SnapshotError("SubmissionStream app " + std::to_string(a) +
                                ": pending " + what);
    };
    const WorkloadKind kind = app.next.kind;
    if (std::find(kinds_.begin(), kinds_.end(), kind) == kinds_.end()) {
      reject("kind " + std::to_string(static_cast<int>(kind)) +
             " is not one of the config's kinds");
    }
    if (app.next.file_index >= zipf_.size()) {
      reject("file index " + std::to_string(app.next.file_index) +
             " is past files_per_kind " + std::to_string(zipf_.size()));
    }
    // The pump arms the head at its time, so no pending submission may lie
    // before the snapshot's instant.
    if (!std::isfinite(app.clock) || app.clock < r.sim_time()) {
      reject("time " + std::to_string(app.clock) +
             " is not finite or precedes the snapshot time " +
             std::to_string(r.sim_time()));
    }
    app.next.time = app.clock;
    app.next.app_index = static_cast<int>(a);
    ++live_apps_;
  }
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
