// Experiment metrics: everything the paper's evaluation section reports.
//
//   Fig. 7  — per-job percentage of local input tasks (mean ± std)
//   Fig. 8  — average job completion time
//   Fig. 9  — average completion time of the input (map) stage
//   Fig. 10 — scheduler delay (task submitted -> task launched)
//
// Two aggregation modes behind one API:
//
//   exact (default)  — the collector records raw per-task and per-job
//                      events; summaries are derived on demand so benches
//                      can slice them any way the figures need.
//   streaming        — enable_streaming() switches to constant-memory
//                      aggregation: exact running counters plus P² quantile
//                      banks (common/streaming_stats.h).  Million-job
//                      steady-state runs keep no per-sample vectors at all.
//
// Warm-up discard (set_warmup) applies identically in both modes: records
// whose job was submitted (or task became ready) before the warm-up instant
// never enter the figure aggregates, so a streaming run and its exact
// reference see the same sample population.  Makespan always covers every
// job, warm-up included.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/streaming_stats.h"
#include "common/types.h"

namespace custody::metrics {

struct TaskRecord {
  AppId app;
  JobId job;
  int stage = 0;
  bool is_input = false;
  bool local = false;        ///< ran on a node storing its input block
  SimTime ready_time = 0.0;  ///< became runnable (paper: "submitted")
  SimTime launch_time = 0.0;
  SimTime finish_time = 0.0;

  [[nodiscard]] SimTime scheduler_delay() const {
    return launch_time - ready_time;
  }
  [[nodiscard]] SimTime duration() const { return finish_time - launch_time; }
};

/// What the fluid network's rate path cost over a whole run: recomputes
/// executed vs. batched away by same-timestamp coalescing, and the scan
/// counters that show the per-event work is sub-linear.  Mirrors
/// net::NetStats so the metrics layer stays free of network dependencies;
/// LiveRun::collect fills it from Network::stats().
struct NetworkStatsRecord {
  std::uint64_t recomputes_requested = 0;
  std::uint64_t recomputes_run = 0;
  std::uint64_t recomputes_batched = 0;
  std::uint64_t flows_scanned = 0;
  std::uint64_t links_scanned = 0;
  std::uint64_t rounds = 0;
  /// Live components after each solve (summed), dirty components
  /// re-solved and flow rates rewritten.
  std::uint64_t components_total = 0;
  std::uint64_t components_dirty = 0;
  std::uint64_t rates_changed = 0;
  /// Always 0: the network re-arms its completion event from the minima its
  /// one progress walk computes and never rescans the flows.  Kept because
  /// the benchmark (perfbench/bench.cpp, `net.completion_rescans`) and the
  /// result JSON read it; dropping it changes the benchmark.
  std::uint64_t completion_rescans = 0;
  double wall_seconds = 0.0;
};

struct JobRecord {
  AppId app;
  JobId job;
  SimTime submit_time = 0.0;
  SimTime input_stage_finish = 0.0;
  SimTime finish_time = 0.0;
  int input_tasks = 0;
  int local_input_tasks = 0;

  [[nodiscard]] SimTime completion_time() const {
    return finish_time - submit_time;
  }
  [[nodiscard]] SimTime input_stage_duration() const {
    return input_stage_finish - submit_time;
  }
  [[nodiscard]] double locality_percent() const {
    return input_tasks == 0
               ? 0.0
               : 100.0 * local_input_tasks / static_cast<double>(input_tasks);
  }
  [[nodiscard]] bool perfectly_local() const {
    return input_tasks > 0 && local_input_tasks == input_tasks;
  }
};

class MetricsCollector {
 public:
  /// Switch to constant-memory streaming aggregation.  Must be called
  /// before the first record; the raw-record accessors below stay empty in
  /// this mode (they are the exact path's storage, not the API — the
  /// summary methods work in both modes).
  void enable_streaming();
  [[nodiscard]] bool streaming() const { return streaming_; }

  /// Discard figure samples from before `warmup` (simulated seconds).
  /// Applies in both modes; 0 (the default) keeps everything.
  void set_warmup(SimTime warmup) { warmup_ = warmup; }
  [[nodiscard]] SimTime warmup() const { return warmup_; }

  void record_task(const TaskRecord& record);
  void record_job(const JobRecord& record);

  // --- raw records (exact mode only; empty while streaming) --------------
  [[nodiscard]] const std::vector<TaskRecord>& tasks() const { return tasks_; }
  [[nodiscard]] const std::vector<JobRecord>& jobs() const { return jobs_; }

  // --- figure-level summaries (both modes) -------------------------------
  /// Fig. 7: distribution over jobs of % local input tasks.  Exact mode
  /// computes the same values Summarize(per_job_locality_percent()) would;
  /// streaming mode returns exact moments with P² percentiles.
  [[nodiscard]] Summary job_locality_summary() const;
  /// Fig. 8: job completion times.
  [[nodiscard]] Summary jct_summary() const;
  /// Fig. 9: input (map) stage durations.
  [[nodiscard]] Summary input_stage_summary() const;
  /// Fig. 10: scheduler delay of input tasks.
  [[nodiscard]] Summary sched_delay_summary() const;

  /// Fraction of all input tasks that were local, in percent.
  [[nodiscard]] double overall_input_locality_percent() const;
  /// Fraction of jobs with perfect input locality, in percent.
  [[nodiscard]] double local_job_percent() const;
  /// Per-application fraction of perfectly local jobs (max-min fairness
  /// property checks).  Indexed by AppId value; missing apps are skipped.
  [[nodiscard]] std::vector<double> per_app_local_job_fraction(
      std::size_t num_apps) const;
  /// Latest job finish time over ALL jobs, warm-up included.
  [[nodiscard]] SimTime makespan() const { return makespan_; }
  /// Jobs that entered the figure aggregates (post warm-up).
  [[nodiscard]] std::uint64_t jobs_recorded() const { return jobs_recorded_; }

  // --- exact-mode sample vectors (benches slice these; throw-free but
  // empty in streaming mode) ----------------------------------------------
  /// Fig. 7 samples: one per job — % of its input tasks that were local.
  [[nodiscard]] std::vector<double> per_job_locality_percent() const;
  /// Fig. 8 samples: one per job — completion time in seconds.
  [[nodiscard]] std::vector<double> job_completion_times() const;
  /// Fig. 9 samples: one per job — input (map) stage duration.
  [[nodiscard]] std::vector<double> input_stage_durations() const;
  /// Fig. 10 samples: one per *input task* — scheduler delay.
  [[nodiscard]] std::vector<double> input_scheduler_delays() const;

  /// Serialize every aggregate — exact-mode record vectors, streaming
  /// banks, and the running counters — so a restored run's summaries are
  /// bit-identical to an uninterrupted one's.  Mode and warm-up are part
  /// of the payload and re-checked on restore (they are config-derived).
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

 private:
  template <class Self, class Io>
  static void Fields(Self& self, Io& io);

  bool streaming_ = false;
  SimTime warmup_ = 0.0;

  // Exact-mode storage.
  std::vector<TaskRecord> tasks_;
  std::vector<JobRecord> jobs_;

  // Streaming-mode aggregates.
  StreamingSummary locality_stream_;
  StreamingSummary jct_stream_;
  StreamingSummary input_stage_stream_;
  StreamingSummary sched_delay_stream_;

  // Mode-independent running counters (cheap; kept in both modes so the
  // scalar accessors never need the vectors).
  SimTime makespan_ = 0.0;
  std::uint64_t jobs_recorded_ = 0;
  std::uint64_t perfectly_local_jobs_ = 0;
  std::uint64_t input_tasks_total_ = 0;
  std::uint64_t input_tasks_local_ = 0;
  /// Per-app [perfectly local, total] job counts, grown on demand.
  std::vector<std::uint64_t> app_local_jobs_;
  std::vector<std::uint64_t> app_total_jobs_;
};

}  // namespace custody::metrics
