// Shared plumbing of the repository benchmark (perfbench/main.cpp).
//
// The benchmark drives the simulator only through its public API.  Every
// timing here is taken by the benchmark around its own calls into a module
// (spans), or read from counters the program already exposes
// (ExperimentResult, ManagerStats, NetworkStatsRecord); nothing inside
// src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "workload/harness.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the span log lands (trace runs only)
};

/// Median / linear-interpolation percentile of an unsorted sample (0 when
/// empty).
[[nodiscard]] double Quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// In-memory span log: name, start, end and the enclosing span, per thread.
/// Disabled logs record nothing; a Scope over a disabled log costs one
/// branch.  Written out as JSON lines when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since the log was created
    double end_s = 0.0;
    int parent = -1;       ///< index of the enclosing span, -1 at top level
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  void write(const std::string& path) const;

 private:
  int open(std::string name);
  void close(int index);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Log-bucketed latency histogram (2^(1/16) ≈ 4.4% buckets from 1 ns);
/// constant memory for any number of samples.
class LogHistogram {
 public:
  void add(double seconds);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  void merge(const LogHistogram& other);
  /// Bucket-midpoint quantile in seconds (0 when empty).
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kBuckets = 16 * 40;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Per-event wall time from a post-event hook that schedules nothing:
/// the gap between consecutive hook calls is one event plus its post-event
/// work (the network flush).  Call window_start() before each run_until so
/// the benchmark's own work between windows is never counted.
class EventWallProbe {
 public:
  void attach(custody::sim::Simulator& sim);
  void window_start() { primed_ = false; }
  void merge(const EventWallProbe& other) { hist_.merge(other.hist_); }
  [[nodiscard]] const LogHistogram& histogram() const { return hist_; }

 private:
  LogHistogram hist_;
  Clock::time_point last_{};
  bool primed_ = false;
};

/// The simulated outcome of a set of runs; equal digests mean the runs
/// simulated the same thing.  Wall-clock fields are excluded.
struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t jobs = 0;
  double jct_mean = 0.0;      ///< mean over runs of each run's JCT mean
  double jct_p99 = 0.0;       ///< max over runs
  double local_job_pct = 0.0; ///< mean over runs
  double bytes = 0.0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  int runs = 0;

  void add(const custody::workload::ExperimentResult& r);
  [[nodiscard]] std::string describe() const;
};

/// Exact (deterministic) counters summed over a set of runs, plus the
/// run-wall shares the counters are normalized by.
struct Ledger {
  // Exact counts.
  std::uint64_t events = 0;
  std::uint64_t jobs = 0;
  std::uint64_t alloc_rounds = 0;
  std::uint64_t rounds_skipped = 0;
  std::uint64_t rounds_productive = 0;  ///< from round_yield_fraction
  std::uint64_t round_count = 0;        ///< rounds the round observer saw
  std::uint64_t executors_granted = 0;
  std::uint64_t executors_scanned = 0;
  std::uint64_t apps_considered = 0;
  std::uint64_t offers_made = 0;
  std::uint64_t offers_rejected = 0;
  std::uint64_t net_requested = 0;
  std::uint64_t net_solves = 0;
  std::uint64_t net_batched = 0;
  std::uint64_t flows_scanned = 0;
  std::uint64_t links_scanned = 0;
  std::uint64_t components_dirty = 0;
  std::uint64_t completion_rescans = 0;
  std::uint64_t launches_local = 0;
  std::uint64_t launches_covered_busy = 0;
  std::uint64_t launches_uncovered = 0;
  std::uint64_t spec_launches = 0;
  std::uint64_t spec_wins = 0;
  std::uint64_t peak_live_tasks = 0;  ///< max over runs
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t nodes_failed = 0;
  double bytes = 0.0;
  // Wall clock (not exact).
  double net_wall_s = 0.0;
  double alloc_wall_s = 0.0;
  double round_wall_p99_s = 0.0;  ///< max over runs

  void add(const custody::workload::ExperimentResult& r);
  /// The exact counters, in a fixed order, for the repeat self-check.
  [[nodiscard]] std::vector<std::uint64_t> exact() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value ("n/a", sample counts)
};

/// What one invocation reports.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  ///< check name -> count
  std::vector<std::string> lines;                 ///< human-readable notes

  /// Count one operation; a false `ok` counts it failed under `check`.
  void op(bool ok, const std::string& check);
  void e2e(std::string name, double value, std::string unit,
           std::string note = "");
  void layer(std::string name, double value, std::string unit,
             std::string note = "");
};

/// Fill the per-layer metrics that derive from a ledger and the run wall
/// (`run_wall_s` = time inside the simulator's run calls; <= 0 leaves the
/// wall-derived ones to FillMissingLayers, which marks them n/a).
void AddLedgerMetrics(Report& report, const Ledger& ledger, double run_wall_s);

/// Emit every per-layer metric the benchmark defines that `report` has not
/// set yet, as 0 marked n/a — so each traced run prints the full set.
void FillMissingLayers(Report& report);

/// Check the exact counters of two runs of the same input bit for bit.
void CheckExactRepeat(Report& report, const Ledger& a, const Ledger& b);

/// One LiveRun from construction to collect, each call inside its span.
struct RunRecord {
  custody::workload::ExperimentResult result;
  double ctor_s = 0.0;
  double run_s = 0.0;       ///< inside run_until, all windows
  double collect_s = 0.0;
  std::uint64_t queue_peak = 0;  ///< queue_size() at window boundaries
};

/// Construct a LiveRun over `snapshot`, drive it to drain in windows of
/// `window` simulated seconds (run_until never perturbs the run), collect.
/// A non-null `probe` is attached to the run's simulator.
RunRecord RunLive(const custody::workload::SubstrateSnapshot& snapshot,
                  custody::workload::ManagerKind manager, double window,
                  SpanLog& spans, EventWallProbe* probe);

/// snap.save_ms / snap.restore_ms / snap.bytes: run to `at`, save(),
/// restore into a fresh LiveRun, and check the restored boundary matches.
void MeasureSnapshotCodec(const custody::workload::SubstrateSnapshot& snapshot,
                          custody::workload::ManagerKind manager, double at,
                          Report& report, SpanLog& spans);

/// dfs.context_build_s: median of `times` SimulationContext builds.
void MeasureContextBuild(const custody::workload::SubstrateSnapshot& snapshot,
                         int times, Report& report, SpanLog& spans);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double PeakRssMb();

/// Workload entry points (steady.cpp, grid.cpp, service.cpp).
void RunSteady10k(const Options& options, Report& report, SpanLog& spans);
void RunSpec1k(const Options& options, Report& report, SpanLog& spans);
void RunPaperGrid(const Options& options, Report& report, SpanLog& spans);
void RunWhatifService(const Options& options, Report& report, SpanLog& spans);

/// The seed of a workload's `index`-th input, derived from the run seed.
/// Workloads average several inputs so the inputs drawn for one seed move
/// a metric less.
[[nodiscard]] std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t index);

/// Throughput over inputs measured in several passes: each input's median
/// wall over the passes, so one slow moment on a shared machine moves the
/// result little.  `walls[p][k]` is input k's wall in pass p.
[[nodiscard]] double JobsPerSecond(
    const std::vector<std::uint64_t>& jobs,
    const std::vector<std::vector<double>>& walls);

/// Threads a steady pass or a grid sweep uses (<= nproc, at most 4).
[[nodiscard]] int SweepThreads();

}  // namespace perfbench
