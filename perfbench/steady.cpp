// The two open-loop steady-state workloads.
//
//   steady-10k  10 000 nodes x 2 executors, WordCount + Sort, 4 apps, flat
//               arrivals (bench_steady_state's node-sweep config).  Custody
//               and standalone replay one SubstrateSnapshot per input.
//   spec-1k     1 000 nodes, Custody only: speculation on, 10% slow nodes
//               (4x), block cache on, node failures, PageRank + WordCount +
//               Sort.
//
// A pass runs several inputs (seeds derived from the run seed), up to
// SweepThreads() side by side: for each, build the snapshot, construct a
// LiveRun per manager and drive it to drain in run_until windows.  Passes
// replay the same inputs until the time budget is spent; jobs/s takes each
// input's median wall over the passes, summed over inputs, so it is the
// rate of one simulation thread.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

using custody::workload::ExperimentConfig;
using custody::workload::ManagerKind;
using custody::workload::SubstrateSnapshot;
using custody::workload::WorkloadKind;

constexpr std::size_t kMinPasses = 3;

struct SteadyWorkload {
  std::vector<ExperimentConfig> inputs;
  std::vector<ManagerKind> managers;
  double window = 1.0;       ///< run_until window, simulated seconds
  double snapshot_at = 0.0;  ///< mid-run boundary for the snap codec probe
};

ExperimentConfig SteadyConfig(int jobs_per_app, long long nodes) {
  ExperimentConfig config;
  // A larger catalog than the paper's 16 files per kind, so one seed's
  // draw of file sizes moves the cost of an input less.
  config.trace.files_per_kind = 128;
  config.num_nodes = static_cast<std::size_t>(nodes);
  config.executors_per_node = 2;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = jobs_per_app;
  config.trace.mean_interarrival = 16.0 * 100.0 / static_cast<double>(nodes);
  config.steady.enabled = true;
  config.steady.retire_jobs = true;
  config.steady.streaming_metrics = true;
  // Summaries describe jobs submitted after the first quarter of arrivals.
  config.steady.warmup = jobs_per_app * config.trace.mean_interarrival / 4.0;
  return config;
}

/// Simulated seconds until the last arrival, roughly.
double ArrivalHorizon(const ExperimentConfig& config) {
  return config.trace.jobs_per_app * config.trace.mean_interarrival;
}

SteadyWorkload Build(const ExperimentConfig& shape, int inputs,
                     std::vector<ManagerKind> managers, std::uint64_t seed) {
  SteadyWorkload w;
  for (int k = 0; k < inputs; ++k) {
    w.inputs.push_back(shape);
    w.inputs.back().seed = SubSeed(seed, static_cast<std::uint64_t>(k));
  }
  w.managers = std::move(managers);
  w.window = ArrivalHorizon(shape) / 16.0;
  w.snapshot_at = ArrivalHorizon(shape) / 2.0;
  return w;
}

SteadyWorkload Steady10k(std::uint64_t seed) {
  return Build(SteadyConfig(25, 10000), 8,
               {ManagerKind::kCustody, ManagerKind::kStandalone}, seed);
}

SteadyWorkload Spec1k(std::uint64_t seed) {
  ExperimentConfig config = SteadyConfig(40, 1000);
  config.kinds = {WorkloadKind::kPageRank, WorkloadKind::kWordCount,
                  WorkloadKind::kSort};
  config.speculation = true;
  config.slow_node_fraction = 0.1;
  config.slow_node_factor = 4.0;
  config.cache_mb_per_node = 2048.0;
  const double horizon = ArrivalHorizon(config);
  config.node_failures = 3;
  config.failure_start = horizon * 0.2;
  config.failure_interval = horizon * 0.25;
  return Build(config, 16, {ManagerKind::kCustody}, seed);
}

/// One pass over every input.
struct Pass {
  std::vector<double> run_s;     ///< per input, all managers
  std::vector<std::uint64_t> jobs;  ///< per input, all managers
  std::vector<double> setup_s;   ///< per input: Build + every LiveRun ctor
  double build_s = 0.0;
  double ctor_s = 0.0;
  double collect_s = 0.0;
  std::uint64_t queue_peak = 0;
  Outcome outcome;
  Ledger ledger;

  [[nodiscard]] double total_run_s() const {
    double sum = 0.0;
    for (const double s : run_s) sum += s;
    return sum;
  }
};

/// One input under every manager, on the calling thread.
struct InputRecord {
  double build_s = 0.0;
  double ctor_s = 0.0;
  double run_s = 0.0;
  double collect_s = 0.0;
  std::uint64_t queue_peak = 0;
  std::vector<custody::workload::ExperimentResult> results;
  EventWallProbe probe;
};

void RunInput(const SteadyWorkload& w, const ExperimentConfig& input,
              SpanLog& spans, bool traced, InputRecord& record) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<SubstrateSnapshot> snapshot;
  {
    SpanLog::Scope span(spans, "workload.SubstrateSnapshot::Build");
    snapshot =
        std::make_unique<SubstrateSnapshot>(SubstrateSnapshot::Build(input));
  }
  record.build_s = SecondsSince(start);
  for (const ManagerKind manager : w.managers) {
    RunRecord run = RunLive(*snapshot, manager, w.window, spans,
                            traced ? &record.probe : nullptr);
    record.ctor_s += run.ctor_s;
    record.run_s += run.run_s;
    record.collect_s += run.collect_s;
    record.queue_peak = std::max(record.queue_peak, run.queue_peak);
    record.results.push_back(std::move(run.result));
  }
}

/// One pass: the inputs spread over SweepThreads() threads (one input per
/// thread at a time; runs share nothing), merged in input order.
Pass RunPass(const SteadyWorkload& w, Report& report, SpanLog& spans,
             bool traced, EventWallProbe& probe) {
  SpanLog::Scope pass_span(spans, "pass");
  std::vector<InputRecord> records(w.inputs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t k = next++; k < records.size(); k = next++) {
      RunInput(w, w.inputs[k], spans, traced, records[k]);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < SweepThreads(); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  Pass pass;
  for (std::size_t k = 0; k < records.size(); ++k) {
    const InputRecord& r = records[k];
    const ExperimentConfig& input = w.inputs[k];
    const std::uint64_t submitted =
        static_cast<std::uint64_t>(input.trace.num_apps) *
        static_cast<std::uint64_t>(input.trace.jobs_per_app);
    std::uint64_t jobs = 0;
    for (const custody::workload::ExperimentResult& result : r.results) {
      // Every submitted job completes and is retired: the streaming engine
      // leaks nothing.
      report.op(result.jobs_completed == submitted &&
                    result.jobs_retired == result.jobs_completed,
                "steady-completed-submitted-retired");
      jobs += result.jobs_completed;
      pass.outcome.add(result);
      pass.ledger.add(result);
    }
    pass.run_s.push_back(r.run_s);
    pass.jobs.push_back(jobs);
    pass.setup_s.push_back(r.build_s + r.ctor_s);
    pass.build_s += r.build_s;
    pass.ctor_s += r.ctor_s;
    pass.collect_s += r.collect_s;
    pass.queue_peak = std::max(pass.queue_peak, r.queue_peak);
    probe.merge(r.probe);
  }
  return pass;
}

double PassJobsPerSecond(const std::vector<Pass>& passes) {
  std::vector<std::vector<double>> walls;
  for (const Pass& p : passes) walls.push_back(p.run_s);
  return JobsPerSecond(passes.front().jobs, walls);
}

void RunSteady(const SteadyWorkload& w, const Options& options,
               Report& report, SpanLog& spans) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  // Untraced passes carry the end-to-end metrics.  A traced run alternates
  // untraced and traced passes so their jobs/s compare under the same
  // machine conditions (the tracing overhead).
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  EventWallProbe probe;
  SpanLog off(false);
  for (;;) {
    if (options.trace && traced.size() < plain.size()) {
      traced.push_back(RunPass(w, report, spans, true, probe));
    } else {
      plain.push_back(RunPass(w, report, off, false, probe));
    }
    const bool enough = plain.size() >= kMinPasses &&
                        (!options.trace || traced.size() >= kMinPasses);
    if (enough && Clock::now() >= deadline) break;
  }
  // Each pass replays the same inputs: the simulated outcome must not move
  // between them.
  const Pass& first = plain.front();
  for (std::size_t i = 1; i < plain.size(); ++i) {
    report.op(plain[i].outcome.hash == first.outcome.hash, "digest-repeat");
  }
  for (const Pass& pass : traced) {
    report.op(pass.outcome.hash == first.outcome.hash, "digest-repeat");
  }
  report.lines.push_back("outcome " + options.workload + ": " +
                         first.outcome.describe());

  if (!options.trace) {
    std::vector<double> setup;
    for (const Pass& p : plain) {
      setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    }
    report.e2e("jobs_per_s", PassJobsPerSecond(plain), "1/s",
               std::to_string(plain.size()) + " passes over " +
                   std::to_string(w.inputs.size()) + " inputs, " +
                   std::to_string(first.outcome.jobs) +
                   " jobs a pass; per-input median wall");
    report.e2e("setup_s", Median(setup), "s",
               "median of " + std::to_string(setup.size()) +
                   " per-input set-ups");
    report.e2e("peak_rss_mb", PeakRssMb(), "MB", "process peak");
    return;
  }

  // --- per-layer (traced run) ---------------------------------------------
  const Pass& t = traced.front();
  CheckExactRepeat(report, first.ledger, t.ledger);
  AddLedgerMetrics(report, t.ledger, t.total_run_s());
  report.layer("sim.event_wall_p50_us", probe.histogram().quantile(0.5) * 1e6,
               "us", std::to_string(probe.histogram().count()) + " events");
  report.layer("sim.event_wall_p99_us", probe.histogram().quantile(0.99) * 1e6,
               "us", std::to_string(probe.histogram().count()) + " events");
  report.layer("sim.queue_peak", static_cast<double>(t.queue_peak), "count",
               "exact; max at window boundaries");
  std::vector<double> build;
  std::vector<double> ctor;
  std::vector<double> collect;
  for (const Pass& p : traced) {
    build.push_back(p.build_s);
    ctor.push_back(p.ctor_s);
    collect.push_back(p.collect_s);
  }
  const std::string per_pass = "one pass: all inputs and managers";
  report.layer("workload.snapshot_build_s", Median(build), "s", per_pass);
  report.layer("workload.liverun_ctor_s", Median(ctor), "s", per_pass);
  report.layer("metrics.collect_s", Median(collect), "s", per_pass);
  const double untraced = PassJobsPerSecond(plain);
  const double with_trace = PassJobsPerSecond(traced);
  report.layer("bench.untraced_jobs_per_s", untraced, "1/s",
               std::to_string(plain.size()) + " passes");
  report.layer("bench.traced_jobs_per_s", with_trace, "1/s",
               std::to_string(traced.size()) + " passes");
  report.layer("bench.trace_overhead_ratio", untraced / with_trace - 1.0,
               "ratio");

  const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(w.inputs[0]);
  MeasureContextBuild(snapshot, 3, report, spans);
  MeasureSnapshotCodec(snapshot, w.managers.front(), w.snapshot_at, report,
                       spans);
}

}  // namespace

void RunSteady10k(const Options& options, Report& report, SpanLog& spans) {
  RunSteady(Steady10k(options.seed), options, report, spans);
}

void RunSpec1k(const Options& options, Report& report, SpanLog& spans) {
  RunSteady(Spec1k(options.seed), options, report, spans);
}

}  // namespace perfbench
