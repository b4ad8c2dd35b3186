// Steady-state streaming engine — sustained throughput over long horizons.
//
// Open-loop arrivals generated lazily (SubmissionStream), pool-backed job
// retirement and constant-memory streaming metrics: nothing in the run
// grows with the horizon, so the interesting numbers are the sustained
// event rate and the live-object high-water mark, not the totals.  Two
// rows: flat exponential arrivals and a diurnally modulated pattern (the
// day/night load swing every production trace shows).
//
// Scale with CUSTODY_BENCH_STEADY_JOBS (total jobs across apps, default
// 100000) and CUSTODY_BENCH_STEADY_NODES (default 100); CI runs a
// scaled-down pass under an RSS ceiling via /usr/bin/time and archives
// the --json output as BENCH_steady.json.
//
// Checkpoint/resume: `--checkpoint-every <sim-seconds>` (with optional
// `--checkpoint-dir <path>`) writes periodic snapshots of the flat run;
// `--resume <snapshot>` restores one and finishes the run — with summaries
// identical to the uninterrupted run.  Either flag narrows the bench to
// the flat scenario only (a snapshot is pinned to one exact config, so
// replaying it across scenario rows cannot work).
//
// CUSTODY_BENCH_STEADY_SWEEP_JOBS=N (default 0 = off) appends a node-
// scaling sweep: the same N jobs replayed at 100 / 1000 / 10000 nodes.
// Demand is fixed while the idle pool grows 100x, so the events/s column
// down the sweep is the demand-driven-rounds acceptance check: with
// allocation rounds proportional to demand the rate stays within ~10x
// across the sweep, with rebuild-per-round rounds it collapses ~100x+.
// Two kick-sweep rows follow: `node-sweep-standalone` (10k nodes, the
// standalone baseline holding every executor, so most are free while jobs
// wait) and `node-sweep-spec` (1k nodes, speculation on, 10% slow nodes).
// Both track the application's kick sweep, whose cost should follow
// launches and straggler clones, not free executors held.
//
// `--progress` streams a live events/sim-time/jobs-retired line to stderr
// (via workload::RunControl) so a million-job run is observable while it
// runs.  Attaching the observer never changes results — the tier-1 suite
// pins that.
#include <chrono>

#include "bench_common.h"
#include "workload/harness.h"

namespace {

custody::workload::ExperimentConfig SteadyBenchConfig(long long total_jobs,
                                                      long long nodes,
                                                      bool diurnal) {
  using namespace custody::workload;
  ExperimentConfig config;
  config.num_nodes = static_cast<std::size_t>(nodes);
  config.executors_per_node = 2;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = static_cast<int>(total_jobs / 4);
  // Keep the offered load comfortably inside capacity: an open-loop run
  // with arrivals faster than service accumulates live jobs without bound,
  // which is exactly what this mode exists to avoid measuring.
  config.trace.mean_interarrival = 16.0 * 100.0 / static_cast<double>(nodes);
  config.steady.enabled = true;
  config.steady.retire_jobs = true;
  config.steady.streaming_metrics = true;
  // Discard the fill-up transient so percentiles describe the steady phase.
  config.steady.warmup = 50.0 * config.trace.mean_interarrival;
  if (diurnal) {
    config.steady.diurnal_amplitude = 0.5;
    config.steady.diurnal_period = 3600.0;
  }
  config.seed = custody::bench::Seed();
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace custody;
  using namespace custody::bench;
  using namespace custody::workload;

  PrintBanner(std::cout, "Steady state — streaming engine throughput");
  const long long total_jobs =
      EnvInt("CUSTODY_BENCH_STEADY_JOBS").value_or(100000);
  const long long nodes = EnvInt("CUSTODY_BENCH_STEADY_NODES").value_or(100);
  const long long sweep_jobs =
      EnvInt("CUSTODY_BENCH_STEADY_SWEEP_JOBS").value_or(0);
  if (total_jobs < 4 || nodes < 1) {
    std::cerr << "error: CUSTODY_BENCH_STEADY_JOBS must be >= 4 and "
                 "CUSTODY_BENCH_STEADY_NODES >= 1\n";
    return 1;
  }
  std::cout << "scale: " << total_jobs << " jobs over 4 apps, " << nodes
            << " nodes, seed " << Seed()
            << " (CUSTODY_BENCH_STEADY_JOBS / CUSTODY_BENCH_STEADY_NODES / "
               "CUSTODY_BENCH_SEED to change)\n";
  if (sweep_jobs >= 4) {
    std::cout << "node sweep: " << sweep_jobs
              << " jobs at 100 / 1000 / 10000 nodes "
                 "(CUSTODY_BENCH_STEADY_SWEEP_JOBS)\n";
  }

  const std::vector<std::string> columns{
      "scenario",        "manager",       "nodes",
      "jobs",            "wall_s",        "events",
      "events_per_sec",  "net_wall_s",    "net_solve_share",
      "jobs_retired",    "peak_live_tasks",
      "jct_mean_s",      "jct_p99_s",     "makespan_s",
      "kicks",           "kick_probes",   "launches",
      "release_checks",  "release_verdicts", "release_blocks_walked",
      "free_ids_copied"};
  auto csv = MaybeCsv(argc, argv, columns);
  auto json = MaybeJson(argc, argv, columns);
  bool progress = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--progress") progress = true;
  }
  const CheckpointConfig checkpoint = CheckpointFlags(argc, argv);
  const bool checkpointing =
      checkpoint.every > 0.0 || !checkpoint.resume_path.empty();
  if (checkpointing) {
    std::cout << "checkpointing: flat scenario only";
    if (checkpoint.every > 0.0) {
      std::cout << ", snapshot every " << checkpoint.every << " sim-s into "
                << checkpoint.directory;
    }
    if (!checkpoint.resume_path.empty()) {
      std::cout << ", resuming from " << checkpoint.resume_path;
    }
    std::cout << '\n';
  }

  AsciiTable table({"scenario", "nodes", "wall (s)", "events/s",
                    "net share", "jobs retired", "peak live tasks",
                    "JCT mean (s)", "JCT p99 (s)"});
  // Runs one configuration and appends its table/CSV/JSON rows; false
  // means the engine leaked live jobs (retired != completed != submitted).
  const auto run_row = [&](const std::string& scenario,
                           ExperimentConfig config) -> bool {
    const std::string row_nodes = std::to_string(config.num_nodes);
    const std::string row_jobs = std::to_string(
        static_cast<long long>(config.trace.num_apps) *
        config.trace.jobs_per_app);
    if (checkpointing) config.checkpoint = checkpoint;
    RunControl control;
    if (progress) {
      control.on_progress = [&scenario](const RunProgress& p) {
        std::cerr << "\r[" << scenario << "] events " << p.events_processed
                  << "  sim-time " << Num(p.sim_time, 1) << "s  jobs retired "
                  << p.jobs_retired << "   " << std::flush;
      };
    }
    const auto start = std::chrono::steady_clock::now();
    const ExperimentResult result =
        RunExperiment(config, progress ? &control : nullptr);
    if (progress) std::cerr << '\n';
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double events_per_sec =
        wall > 0.0 ? static_cast<double>(result.events_processed) / wall : 0.0;
    const double net_wall = result.net_stats.wall_seconds;
    const double net_share = wall > 0.0 ? net_wall / wall : 0.0;
    table.add_row({scenario, row_nodes, Num(wall),
                   Num(events_per_sec, 0), Num(net_share, 3),
                   std::to_string(result.jobs_retired),
                   std::to_string(result.peak_live_tasks),
                   Num(result.jct.mean), Num(result.jct.p99)});
    const std::vector<std::string> row{
        scenario,
        result.manager_name,
        row_nodes,
        row_jobs,
        Num(wall, 3),
        std::to_string(result.events_processed),
        Num(events_per_sec, 0),
        Num(net_wall, 3),
        Num(net_share, 4),
        std::to_string(result.jobs_retired),
        std::to_string(result.peak_live_tasks),
        Num(result.jct.mean, 3),
        Num(result.jct.p99, 3),
        Num(result.makespan, 1),
        std::to_string(result.app_work.kicks),
        std::to_string(result.app_work.kick_probes),
        std::to_string(result.app_work.launches),
        std::to_string(result.app_work.release_checks),
        std::to_string(result.app_work.release_verdicts),
        std::to_string(result.app_work.release_blocks_walked),
        std::to_string(result.app_work.free_ids_copied)};
    if (csv) csv->add_row(row);
    if (json) json->add_row(row);

    // The run retires what it completes; anything else means the engine
    // leaked live jobs and the memory story is fiction.
    if (result.jobs_retired != result.jobs_completed ||
        result.jobs_completed != static_cast<std::uint64_t>(
                                     config.trace.num_apps *
                                     config.trace.jobs_per_app)) {
      std::cerr << "error: " << scenario << " run completed "
                << result.jobs_completed << " and retired "
                << result.jobs_retired << " of "
                << config.trace.num_apps * config.trace.jobs_per_app
                << " jobs\n";
      return false;
    }
    return true;
  };

  for (const bool diurnal : {false, true}) {
    if (checkpointing && diurnal) break;  // a snapshot pins one exact config
    if (!run_row(diurnal ? "diurnal" : "flat",
                 SteadyBenchConfig(total_jobs, nodes, diurnal))) {
      return 1;
    }
  }
  if (!checkpointing && sweep_jobs >= 4) {
    const auto sweep_config = [sweep_jobs](long long sweep_nodes) {
      return SteadyBenchConfig(sweep_jobs, sweep_nodes, /*diurnal=*/false);
    };
    for (const long long sweep_nodes : {100LL, 1000LL, 10000LL}) {
      if (!run_row("node-sweep", sweep_config(sweep_nodes))) return 1;
    }
    // The kick-sweep rows: standalone holds every executor, and
    // speculation offers free slots to straggler clones.
    ExperimentConfig standalone = sweep_config(10000);
    standalone.manager = ManagerKind::kStandalone;
    if (!run_row("node-sweep-standalone", standalone)) return 1;
    ExperimentConfig spec = sweep_config(1000);
    spec.speculation = true;
    spec.slow_node_fraction = 0.1;
    if (!run_row("node-sweep-spec", spec)) return 1;
  }
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
