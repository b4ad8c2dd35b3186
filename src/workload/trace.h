// Job-submission traces.
//
// The paper generates "a common job submission schedule shared by all the
// experiments" with roughly exponential inter-arrival times (mean 4 s, after
// the Facebook trace) and submits an independent schedule of 30 jobs to each
// of 4 registered applications.  The trace is materialized up front — file
// choices included — so the compared cluster managers see byte-identical
// workloads.
//
// Steady-state mode (SteadyStateConfig / SubmissionStream) generates the
// same kind of schedule *lazily*: each application owns a forked rng stream
// and the merged arrival sequence is pulled one submission at a time, so a
// million-job horizon never holds more than one pending submission in
// memory.  Determinism contract: consuming a stream lazily yields the
// identical schedule to draining it up front (DrainStream), and the harness
// pumps it one event ahead without changing any scheduling decision.
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
/// the harness draws submissions lazily from the arrival process instead of
/// materializing the classic trace, applications retire finished jobs
/// through a pool allocator, and metrics aggregate in constant memory.
struct SteadyStateConfig {
  /// Master switch.  Off (the default) runs the classic materialized trace.
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
  /// Diurnal arrival modulation: the instantaneous rate is scaled by
  /// 1 + amplitude·sin(2π·t/period), i.e. each exponential inter-arrival
  /// draw is divided by that factor.  Amplitude 0 (default) is a flat
  /// Poisson process; must stay < 1 so the rate never reaches zero.
  double diurnal_amplitude = 0.0;
  double diurnal_period = 3600.0;
};

/// Lazy per-application arrival streams merged into one global submission
/// sequence, emitted in non-decreasing time order (ties broken by app
/// index).  Each application draws from its own fork of the trace rng, so
/// consuming the merged stream lazily or draining it up front yields the
/// same schedule.  Memory is O(num_apps), independent of jobs_per_app.
class SubmissionStream {
 public:
  SubmissionStream(std::vector<WorkloadKind> kinds, const TraceConfig& trace,
                   const SteadyStateConfig& steady, const Rng& base);

  /// True once every application has emitted its jobs_per_app submissions.
  [[nodiscard]] bool done() const { return live_apps_ == 0; }
  /// The next submission in global time order, without consuming it.
  /// Precondition: !done().
  [[nodiscard]] const Submission& peek() const;
  /// Consume and return the next submission.  Precondition: !done().
  Submission next();

  [[nodiscard]] std::uint64_t total_jobs() const { return total_jobs_; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

  /// What-if perturbation (svc session forks): every future inter-arrival
  /// draw is divided by `factor` (> 0), i.e. 2.0 doubles the offered load
  /// from here on.  Already-drawn pending submissions keep their times.
  /// Serialized with the stream state, so a snapshot taken after a
  /// perturbation restores it.
  void set_rate_scale(double factor);
  [[nodiscard]] double rate_scale() const { return rate_scale_; }

  /// Serialize the dynamic draw state (per-app rng/clock/pending
  /// submission, progress counters).  Config-derived members (kinds, trace
  /// shape, Zipf table) are rebuilt by the constructor; restore must target
  /// a stream built from the identical config.
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  struct AppState {
    Rng rng{0};  ///< reseeded from the trace fork at construction
    SimTime clock = 0.0;  ///< time of the last drawn arrival
    int remaining = 0;    ///< submissions not yet drawn
    bool has_next = false;
    Submission next;
  };

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
  std::uint64_t total_jobs_ = 0;
  std::uint64_t emitted_ = 0;
  double rate_scale_ = 1.0;
};

/// Drain a stream into a vector: the up-front schedule lazy consumption must
/// reproduce.
std::vector<Submission> DrainStream(SubmissionStream stream);

/// Generate a mixed-workload schedule: each submission samples its kind
/// uniformly from `kinds` (a single kind draws no kind at all).
std::vector<Submission> GenerateMixedTrace(
    const std::vector<WorkloadKind>& kinds, const TraceConfig& config,
    Rng& rng);

}  // namespace custody::workload
