// paper-grid: the Fig. 7/8 grid on the classic materialized trace with
// exact metrics — {PageRank, WordCount, Sort} x {25, 50, 100} nodes x
// {standalone, offer, pool, custody}, jobs per app scaled up — run through
// workload::RunSweep on SweepThreads() threads.  A pass sweeps kGrids
// grids, one RunSweep call each; every (grid, kind, size) block has its own
// input seed, shared by its four managers (the common-schedule comparison).
//
// A traced run also replays grid 0 serially, one LiveRun per cell inside
// spans, for the per-cell walls and the per-layer ledger.
#include <algorithm>
#include <string>

#include "bench.h"
#include "workload/sweep.h"

namespace perfbench {

namespace {

using custody::workload::ExperimentConfig;
using custody::workload::ExperimentResult;
using custody::workload::ManagerKind;
using custody::workload::SubstrateSnapshot;
using custody::workload::WorkloadKind;

constexpr int kGrids = 4;  ///< grids per pass, each its own inputs
constexpr std::size_t kMinPasses = 3;
constexpr int kJobsPerApp = 40;
constexpr ManagerKind kManagers[] = {
    ManagerKind::kStandalone, ManagerKind::kOffer, ManagerKind::kPool,
    ManagerKind::kCustody};
constexpr std::size_t kManagerCount = std::size(kManagers);

/// One grid's cells in (kind, size, manager) order; each (kind, size) block
/// holds the four managers in kManagers order over one input seed.
std::vector<ExperimentConfig> GridConfigs(std::uint64_t seed, int grid) {
  std::vector<ExperimentConfig> configs;
  std::uint64_t input = static_cast<std::uint64_t>(grid) * 9;
  for (const WorkloadKind kind : {WorkloadKind::kPageRank,
                                  WorkloadKind::kWordCount,
                                  WorkloadKind::kSort}) {
    for (const std::size_t nodes : {25, 50, 100}) {
      const std::uint64_t block_seed = SubSeed(seed, input++);
      for (const ManagerKind manager : kManagers) {
        ExperimentConfig config;
        config.num_nodes = nodes;
        config.executors_per_node = 2;
        config.kinds = {kind};
        config.trace.num_apps = 4;
        config.trace.jobs_per_app = kJobsPerApp;
        config.manager = manager;
        config.seed = block_seed;
        configs.push_back(config);
      }
    }
  }
  return configs;
}

struct GridOutput {
  std::uint64_t jobs = 0;
  Outcome outcome;
};

/// The output checks shared by both passes: every job completes, and
/// Custody's local-job share is at least standalone's on every cell (the
/// Fig. 7 direction).
GridOutput CheckGrid(const std::vector<ExperimentConfig>& configs,
                     const std::vector<ExperimentResult>& results,
                     Report& report) {
  GridOutput out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentConfig& c = configs[i];
    const ExperimentResult& r = results[i];
    bool ok = r.jobs_completed ==
              static_cast<std::uint64_t>(c.trace.num_apps * c.trace.jobs_per_app);
    std::string check = "grid-jobs-completed";
    if (ok && c.manager == ManagerKind::kCustody) {
      const ExperimentResult& standalone = results[i - (kManagerCount - 1)];
      ok = r.local_job_percent >= standalone.local_job_percent;
      check = "grid-custody-local-jobs-at-least-standalone";
    }
    report.op(ok, check);
    out.jobs += r.jobs_completed;
    out.outcome.add(r);
  }
  return out;
}

/// setup_s for the grid: what the sweep pays before simulating, i.e. one
/// snapshot build and one LiveRun construction per cell.
double MeasureSetup(const std::vector<ExperimentConfig>& configs) {
  double total = 0.0;
  for (const ExperimentConfig& config : configs) {
    const Clock::time_point start = Clock::now();
    const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
    const custody::workload::LiveRun run(snapshot, config.manager);
    total += SecondsSince(start);
  }
  return total;
}

struct SerialPass {
  double wall_s = 0.0;       ///< whole pass
  double run_s = 0.0;        ///< inside run_until
  double collect_s = 0.0;
  double build_s = 0.0;
  double ctor_s = 0.0;
  double slowest_cell_s = 0.0;
  std::uint64_t queue_peak = 0;
  std::vector<ExperimentResult> results;
  Ledger ledger;
};

/// Every cell, one after another, each call into the harness in a span.
SerialPass RunSerial(const std::vector<ExperimentConfig>& configs,
                     SpanLog& spans, EventWallProbe* probe) {
  SerialPass pass;
  SpanLog::Scope pass_span(spans, "serial-grid");
  const Clock::time_point pass_start = Clock::now();
  for (const ExperimentConfig& config : configs) {
    SpanLog::Scope cell_span(spans, "cell");
    const Clock::time_point start = Clock::now();
    std::unique_ptr<SubstrateSnapshot> snapshot;
    {
      SpanLog::Scope span(spans, "workload.SubstrateSnapshot::Build");
      snapshot = std::make_unique<SubstrateSnapshot>(
          SubstrateSnapshot::Build(config));
    }
    pass.build_s += SecondsSince(start);
    // Classic runs are short; a window per few hundred simulated seconds
    // keeps queue sampling cheap.
    RunRecord run = RunLive(*snapshot, config.manager, 200.0, spans, probe);
    pass.ctor_s += run.ctor_s;
    pass.run_s += run.run_s;
    pass.collect_s += run.collect_s;
    pass.queue_peak = std::max(pass.queue_peak, run.queue_peak);
    pass.slowest_cell_s = std::max(pass.slowest_cell_s, SecondsSince(start));
    pass.ledger.add(run.result);
    pass.results.push_back(std::move(run.result));
  }
  pass.wall_s = SecondsSince(pass_start);
  return pass;
}

}  // namespace

void RunPaperGrid(const Options& options, Report& report, SpanLog& spans) {
  std::vector<std::vector<ExperimentConfig>> grids;
  for (int g = 0; g < kGrids; ++g) grids.push_back(GridConfigs(options.seed, g));
  custody::workload::SweepOptions sweep;
  sweep.threads = SweepThreads();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));

  // A pass sweeps every grid, each in its own RunSweep call; jobs/s takes
  // each grid's median wall over the passes.  A traced run alternates a
  // sweep pass with a serial traced pass over grid 0.
  std::vector<std::vector<double>> sweep_walls;  // [pass][grid]
  std::vector<std::uint64_t> grid_jobs(grids.size(), 0);
  std::vector<Outcome> first(grids.size());
  std::vector<double> setup;
  std::vector<SerialPass> traced;
  std::vector<double> untraced_serial_wall;
  EventWallProbe probe;
  SpanLog off(false);
  for (;;) {
    if (options.trace && traced.size() < sweep_walls.size()) {
      SerialPass pass = RunSerial(grids[0], spans, &probe);
      const GridOutput out = CheckGrid(grids[0], pass.results, report);
      report.op(out.outcome.hash == first[0].hash, "digest-repeat");
      traced.push_back(std::move(pass));
      // The same serial pass untraced, right after: the tracing overhead.
      untraced_serial_wall.push_back(RunSerial(grids[0], off, nullptr).wall_s);
    } else {
      std::vector<double> walls;
      for (std::size_t g = 0; g < grids.size(); ++g) {
        setup.push_back(MeasureSetup(grids[g]));
        std::vector<ExperimentResult> results;
        const Clock::time_point start = Clock::now();
        {
          SpanLog::Scope span(spans, "workload.RunSweep");
          results = custody::workload::RunSweep(grids[g], sweep);
        }
        walls.push_back(SecondsSince(start));
        const GridOutput out = CheckGrid(grids[g], results, report);
        if (sweep_walls.empty()) {
          first[g] = out.outcome;
          grid_jobs[g] = out.jobs;
        } else {
          report.op(out.outcome.hash == first[g].hash, "digest-repeat");
        }
      }
      sweep_walls.push_back(std::move(walls));
    }
    const bool enough = sweep_walls.size() >= kMinPasses &&
                        (!options.trace || traced.size() >= kMinPasses);
    if (enough && Clock::now() >= deadline) break;
  }
  for (std::size_t g = 0; g < grids.size(); ++g) {
    report.lines.push_back("outcome paper-grid grid " + std::to_string(g) +
                           ": " + first[g].describe());
  }
  std::uint64_t jobs = 0;
  for (const std::uint64_t j : grid_jobs) jobs += j;
  if (!options.trace) {
    report.e2e("jobs_per_s", JobsPerSecond(grid_jobs, sweep_walls), "1/s",
               std::to_string(sweep_walls.size()) + " passes over " +
                   std::to_string(grids.size()) + " grids of " +
                   std::to_string(grids[0].size()) + " cells, " +
                   std::to_string(jobs) + " jobs a pass, " +
                   std::to_string(sweep.threads) + " threads");
    report.e2e("setup_s", Median(setup), "s",
               "median of " + std::to_string(setup.size()) + " grid set-ups");
    report.e2e("peak_rss_mb", PeakRssMb(), "MB", "process peak");
    return;
  }

  // --- per-layer (traced run) ---------------------------------------------
  const SerialPass& t = traced.front();
  Ledger repeat;
  for (const ExperimentResult& r : traced.back().results) repeat.add(r);
  CheckExactRepeat(report, t.ledger, repeat);
  AddLedgerMetrics(report, t.ledger, t.run_s);
  report.layer("sim.event_wall_p50_us", probe.histogram().quantile(0.5) * 1e6,
               "us", std::to_string(probe.histogram().count()) + " events");
  report.layer("sim.event_wall_p99_us", probe.histogram().quantile(0.99) * 1e6,
               "us", std::to_string(probe.histogram().count()) + " events");
  report.layer("sim.queue_peak", static_cast<double>(t.queue_peak), "count",
               "exact; max over cells at window boundaries");
  report.layer("workload.snapshot_build_s", t.build_s, "s", "all cells");
  report.layer("workload.liverun_ctor_s", t.ctor_s, "s", "all cells");
  report.layer("metrics.collect_s", t.collect_s, "s", "all cells, exact mode");
  std::vector<double> grid0_sweep;
  for (const std::vector<double>& walls : sweep_walls) {
    grid0_sweep.push_back(walls[0]);
  }
  std::vector<double> serial_wall;
  std::vector<double> traced_jps;
  for (const SerialPass& p : traced) {
    serial_wall.push_back(p.wall_s);
    traced_jps.push_back(static_cast<double>(grid_jobs[0]) / p.wall_s);
  }
  report.layer("workload.sweep_efficiency",
               Median(serial_wall) / (sweep.threads * Median(grid0_sweep)),
               "ratio", "serial wall / (threads x sweep wall), grid 0");
  report.layer("workload.sweep_slowest_cell_s", t.slowest_cell_s, "s");
  const double untraced =
      static_cast<double>(grid_jobs[0]) / Median(untraced_serial_wall);
  report.layer("bench.untraced_jobs_per_s", untraced, "1/s",
               "serial passes, grid 0");
  report.layer("bench.traced_jobs_per_s", Median(traced_jps), "1/s",
               "serial passes, grid 0");
  report.layer("bench.trace_overhead_ratio",
               untraced / Median(traced_jps) - 1.0, "ratio");
  // The largest cell's substrate, built on its own.
  const auto largest = std::max_element(
      grids[0].begin(), grids[0].end(),
      [](const ExperimentConfig& a, const ExperimentConfig& b) {
        return a.num_nodes < b.num_nodes;
      });
  MeasureContextBuild(SubstrateSnapshot::Build(*largest), 5, report, spans);
}

}  // namespace perfbench
