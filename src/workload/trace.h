// Job-submission schedules.
//
// The paper generates "a common job submission schedule shared by all the
// experiments" with roughly exponential inter-arrival times (mean 4 s, after
// the Facebook trace) and submits an independent schedule of 30 jobs to each
// of 4 registered applications, so the compared cluster managers see
// byte-identical workloads.
//
// SubmissionStream draws that schedule lazily and merges the applications'
// arrivals into one time-ordered sequence, pulled one submission at a time:
// a million-job horizon never holds more than one pending submission per
// application.  Every job is drawn the same way (exponential gap, then kind,
// then Zipf file).  The classic schedule walks ONE trace rng through the
// applications in turn, so application a starts where a-1's draws ended;
// steady-state runs (SteadyStateConfig) give each application its own fork.
// Determinism contract: consuming a stream lazily yields the identical
// schedule to draining it up front (DrainStream), and the harness pumps it
// one event ahead without changing any scheduling decision.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "workload/workloads.h"

namespace custody::workload {

struct Submission {
  SimTime time = 0.0;
  int app_index = 0;
  WorkloadKind kind = WorkloadKind::kWordCount;
  /// Index into the kind's dataset catalog.
  std::size_t file_index = 0;
};

struct TraceConfig {
  int num_apps = 4;
  int jobs_per_app = 30;
  /// Mean inter-arrival *per application*.  The paper quotes a mean of 4 s
  /// for the common schedule (Facebook trace); with four applications
  /// submitting independently that corresponds to ~16 s per application —
  /// the calibration that keeps scheduler delays in the sub-second range
  /// the paper reports (Fig. 10).
  double mean_interarrival = 16.0;
  double zipf_skew = 0.8;
  int files_per_kind = 16;
};

/// Open-loop steady-state streaming (the million-job mode).  When enabled,
/// each application draws its arrivals from its own fork of the trace rng,
/// applications retire finished jobs through a pool allocator, and metrics
/// aggregate in constant memory.
struct SteadyStateConfig {
  /// Master switch.  Off (the default) draws the paper's classic schedule
  /// and keeps exact per-job metrics and every finished job.
  bool enabled = false;
  /// Destroy finished jobs (stages and task records included) through the
  /// application's job pool the moment they complete.
  bool retire_jobs = true;
  /// Constant-memory metrics aggregation (P² percentile banks) instead of
  /// raw per-job/per-task record vectors.
  bool streaming_metrics = true;
  /// Discard figure samples from jobs submitted before this instant
  /// (simulated seconds), so summaries describe the steady state rather
  /// than the empty-cluster ramp-up.  Makespan still covers every job.
  SimTime warmup = 0.0;
  /// Diurnal arrival modulation, in classic and steady runs alike: the
  /// instantaneous rate is scaled by 1 + amplitude·sin(2π·t/period), i.e.
  /// each exponential inter-arrival draw is divided by that factor.
  /// Amplitude 0 (default) is a flat Poisson process; must stay < 1 so the
  /// rate never reaches zero.
  double diurnal_amplitude = 0.0;
  double diurnal_period = 3600.0;
};

/// Lazy per-application arrival streams merged into one global submission
/// sequence, emitted in non-decreasing time order (ties broken by app
/// index).  Each application owns its rng from construction on, so
/// consuming the merged stream lazily or draining it up front yields the
/// same schedule.  Memory is O(num_apps), independent of jobs_per_app.
class SubmissionStream {
 public:
  /// `base` is the trace rng.  With steady.enabled application a draws from
  /// base.fork(a); otherwise from `base` itself, stepped past the
  /// jobs_per_app draws of every earlier application (the classic schedule).
  SubmissionStream(std::vector<WorkloadKind> kinds, const TraceConfig& trace,
                   const SteadyStateConfig& steady, const Rng& base);

  /// True once every application has emitted its jobs_per_app submissions.
  [[nodiscard]] bool done() const { return live_apps_ == 0; }
  /// The next submission in global time order, without consuming it.
  /// Precondition: !done().
  [[nodiscard]] const Submission& peek() const;
  /// Consume and return the next submission.  Precondition: !done().
  Submission next();

  [[nodiscard]] std::uint64_t total_jobs() const {
    return static_cast<std::uint64_t>(trace_.num_apps) *
           static_cast<std::uint64_t>(trace_.jobs_per_app);
  }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

  /// What-if perturbation (svc session forks): every future inter-arrival
  /// draw is divided by `factor` (> 0), i.e. 2.0 doubles the offered load
  /// from here on.  Already-drawn pending submissions keep their times.
  /// Serialized with the stream state, so a snapshot taken after a
  /// perturbation restores it.
  void set_rate_scale(double factor);
  [[nodiscard]] double rate_scale() const { return rate_scale_; }

  /// Serialize the dynamic draw state: per app its rng, clock, remaining
  /// count and pending kind and file; then the emitted count and the rate
  /// scale.  What follows from those (a pending submission's time is its
  /// app's clock, its app is the slot) or from the config (kinds, trace
  /// shape, Zipf table) is rebuilt, so restore must target a stream built
  /// from the identical config.  RestoreFrom throws snap::SnapshotError for
  /// a pending kind outside the config's kinds, a file index past
  /// files_per_kind, or a pending time that is not finite or precedes the
  /// snapshot's sim time.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  struct AppState {
    Rng rng{0};  ///< reseeded from the trace rng at construction
    SimTime clock = 0.0;  ///< time of the last drawn arrival
    int remaining = 0;    ///< submissions not yet drawn
    bool has_next = false;
    Submission next;
  };
  /// One job's draws, in the schedule's order: gap, kind, file.
  struct Draw {
    double gap = 0.0;
    WorkloadKind kind = WorkloadKind::kWordCount;
    std::size_t file_index = 0;
  };

  /// Make one job's draws from `rng` (a single kind draws no kind at all).
  [[nodiscard]] Draw draw(Rng& rng) const;
  /// Draw app `a`'s next submission into its slot (no-op when exhausted).
  void advance(std::size_t a);
  /// Index of the app holding the globally earliest pending submission.
  [[nodiscard]] std::size_t earliest() const;

  std::vector<WorkloadKind> kinds_;
  TraceConfig trace_;
  SteadyStateConfig steady_;
  ZipfDistribution zipf_;
  std::vector<AppState> apps_;
  std::size_t live_apps_ = 0;
  std::uint64_t emitted_ = 0;
  double rate_scale_ = 1.0;
};

/// Drain a stream into a vector: the up-front schedule lazy consumption must
/// reproduce.
std::vector<Submission> DrainStream(SubmissionStream stream);

}  // namespace custody::workload
