#include "workload/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "cluster/manager_factory.h"
#include "common/log.h"
#include "metrics/metrics.h"
#include "workload/failures.h"

namespace custody::workload {

namespace {

[[noreturn]] void FailConfig(const std::string& what) {
  throw std::invalid_argument("ExperimentConfig: " + what);
}

std::string Num(double v) { return std::to_string(v); }

/// The range-checking walker of Fields: each numeric field against its
/// Range, and the workload list non-empty.
struct RangeCheck {
  std::string prefix;

  template <class T, class R = Range>
  void field(const char* key, const T& v, const R& range = {}) {
    if constexpr (std::is_same_v<R, Range>) {
      const double x = static_cast<double>(v);
      if (!(range.lo_open ? x > range.lo : x >= range.lo) ||
          !(range.hi_open ? x < range.hi : x <= range.hi)) {
        char bounds[48];
        if (range.hi == kUnbounded) {
          std::snprintf(bounds, sizeof bounds, "%s %g",
                        range.lo_open ? ">" : ">=", range.lo);
        } else {
          std::snprintf(bounds, sizeof bounds, "in %c%g, %g%c",
                        range.lo_open ? '(' : '[', range.lo, range.hi,
                        range.hi_open ? ')' : ']');
        }
        FailConfig(prefix + key + " must be " + bounds + " (got " +
                   (std::is_integral_v<T> ? std::to_string(v) : Num(x)) + ")");
      }
    } else if constexpr (!std::is_enum_v<T>) {
      if (v.empty()) FailConfig(prefix + key + " must not be empty");
    }
  }

  template <class Body>
  void group(const char* key, Body body, bool /*hashed*/ = true) {
    const std::string outer = std::exchange(prefix, prefix + key + ".");
    body();
    prefix = outer;
  }
};

}  // namespace

void ValidateConfig(const ExperimentConfig& config) {
  RangeCheck check;
  Fields(config, check);
  // The rules that tie a field to another.  Every message leads with the
  // offending field: the svc layer maps these diagnostics onto structured
  // 400 responses whose `field` is the first token of the message.
  if (config.speculation && config.speculation_multiplier <= 1.0) {
    FailConfig("speculation_multiplier must exceed 1 (got " +
               Num(config.speculation_multiplier) + ")");
  }
  if (config.node_failures > 0 && config.failure_start < 0.0) {
    FailConfig("failure_start must be >= 0 (got " +
               Num(config.failure_start) + ")");
  }
  if (config.node_failures > 1 && config.failure_interval <= 0.0) {
    FailConfig("failure_interval must be > 0 to space multiple crashes"
               " (got " + Num(config.failure_interval) + ")");
  }
  if (config.steady.diurnal_amplitude > 0.0 &&
      config.steady.diurnal_period <= 0.0) {
    FailConfig("steady.diurnal_period must be > 0 when diurnal_amplitude is"
               " set (got " + Num(config.steady.diurnal_period) + ")");
  }
  if (config.steady.enabled && config.steady.retire_jobs &&
      !config.steady.streaming_metrics) {
    FailConfig("steady.retire_jobs requires steady.streaming_metrics:"
               " retiring jobs while exact metrics keep per-job records"
               " would not bound memory");
  }
  if (config.tracing.enabled && config.tracing.capacity == 0) {
    FailConfig("tracing.capacity must be > 0 when tracing is enabled");
  }
  // Checkpoint/resume.
  if (config.checkpoint.every < 0.0) {
    FailConfig("checkpoint.every must be >= 0, where 0 disables periodic"
               " checkpoints (got " + Num(config.checkpoint.every) + ")");
  }
  if (config.checkpoint.every > 0.0 && config.checkpoint.directory.empty()) {
    FailConfig("checkpoint.directory must be non-empty when checkpoint.every"
               " is set");
  }
  if ((config.checkpoint.every > 0.0 ||
       !config.checkpoint.resume_path.empty()) &&
      config.tracing.enabled) {
    FailConfig("checkpoint.every/checkpoint.resume_path require"
               " tracing.enabled off: trace ring buffers are observability,"
               " not simulation state, and are not snapshotted");
  }
}

// ---------------------------------------------------------------------------
// SubstrateSnapshot
// ---------------------------------------------------------------------------
//
// Rng stream map (unchanged from the monolithic runner):
//   fork(1) DFS block placement      fork(2) dataset catalog sizes
//   fork(3) submission schedule      fork(4) standalone manager
//   fork(5) pool manager             fork(6) failure victims
//   fork(7) slow-node choice         fork(10+a) application a

SubstrateSnapshot SubstrateSnapshot::Build(ExperimentConfig config) {
  ValidateConfig(config);
  SubstrateSnapshot snapshot;
  const Rng base(config.seed);

  // Dataset catalog plan (shared across compared managers).
  Rng dataset_rng = base.fork(2);
  for (WorkloadKind kind : config.kinds) {
    bool seen = false;
    for (const DatasetPlan& plan : snapshot.dataset_plans_) {
      if (plan.kind == kind) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    snapshot.dataset_plans_.push_back(
        {kind, PlanDataset(kind, config.trace.files_per_kind, config.dataset,
                           dataset_rng)});
  }

  // Slow-node plan.
  if (config.slow_node_fraction > 0.0) {
    Rng slow_rng = base.fork(7);
    std::vector<NodeId> nodes;
    for (std::size_t n = 0; n < config.num_nodes; ++n) {
      nodes.push_back(NodeId(static_cast<NodeId::value_type>(n)));
    }
    slow_rng.shuffle(nodes);
    const auto slow = static_cast<std::size_t>(config.slow_node_fraction *
                                               config.num_nodes);
    nodes.resize(std::min(slow, nodes.size()));
    snapshot.slow_nodes_ = std::move(nodes);
  }

  snapshot.failure_rng_ = base.fork(6);
  snapshot.config_ = std::move(config);
  return snapshot;
}

SubmissionStream SubstrateSnapshot::make_submission_stream() const {
  return SubmissionStream(config_.kinds, config_.trace, config_.steady,
                          Rng(config_.seed).fork(3));
}

// ---------------------------------------------------------------------------
// SimulationContext
// ---------------------------------------------------------------------------

namespace {

dfs::DfsConfig MakeDfsConfig(const ExperimentConfig& config) {
  dfs::DfsConfig dfs_config;
  dfs_config.num_nodes = config.num_nodes;
  dfs_config.block_bytes = units::MB(config.block_mb);
  dfs_config.default_replication = config.replication;
  return dfs_config;
}

net::NetworkConfig MakeNetConfig(const ExperimentConfig& config) {
  net::NetworkConfig net_config;
  net_config.num_nodes = config.num_nodes;
  net_config.uplink_bps = units::Gbps(config.uplink_gbps);
  net_config.downlink_bps = units::Gbps(config.downlink_gbps);
  net_config.core_bps =
      config.core_gbps > 0.0 ? units::Gbps(config.core_gbps) : 0.0;
  return net_config;
}

cluster::WorkerConfig MakeWorkerConfig(const ExperimentConfig& config) {
  cluster::WorkerConfig worker;
  worker.executors_per_node = config.executors_per_node;
  worker.disk_bps = units::MBps(config.disk_mbps);
  return worker;
}

}  // namespace

SimulationContext::SimulationContext(const SubstrateSnapshot& snapshot)
    : sim_(),
      dfs_(MakeDfsConfig(snapshot.config()),
           Rng(snapshot.config().seed).fork(1)),
      net_(sim_, MakeNetConfig(snapshot.config())),
      cluster_(snapshot.config().num_nodes, MakeWorkerConfig(snapshot.config())),
      cache_(dfs_, units::MB(snapshot.config().cache_mb_per_node)) {
  const ExperimentConfig& config = snapshot.config();
  if (config.tracing.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(sim_, config.tracing);
    net_.set_tracer(tracer_.get());
    dfs_.set_tracer(tracer_.get());
    cache_.set_tracer(tracer_.get());
  }
  for (NodeId node : snapshot.slow_nodes()) {
    cluster_.set_node_speed(node, 1.0 / config.slow_node_factor);
  }
  for (const SubstrateSnapshot::DatasetPlan& plan : snapshot.dataset_plans()) {
    datasets_.emplace(plan.kind,
                      MaterializeDataset(dfs_, plan.kind, config.dataset,
                                         plan.files));
  }
}

core::BlockLocationsFn SimulationContext::block_locations() {
  return [this](BlockId b) -> const std::vector<NodeId>& {
    // Custody sees cached copies as locality opportunities too.
    return cache_.enabled() ? cache_.merged_locations(b) : dfs_.locations(b);
  };
}

// ---------------------------------------------------------------------------
// ConfigHash
// ---------------------------------------------------------------------------

namespace {

/// The hashing walker of Fields: fixed-width little-endian words appended
/// in list order (no framing — the hash is the frame).  size_t, uint64,
/// bool and enum values are u64, int values i64, doubles their raw bits,
/// and a list its count, then each kind.
struct HashSink {
  /// The manager actually run, hashed in place of config.manager
  /// (RunOnSnapshot may replay one snapshot under several).
  ManagerKind manager;
  std::vector<std::uint8_t> bytes;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <class T, class R = Range>
  void field(const char* /*key*/, const T& v, const R& /*range*/ = {}) {
    if constexpr (std::is_same_v<T, ManagerKind>) {
      u64(static_cast<std::uint64_t>(manager));
    } else if constexpr (std::is_floating_point_v<T>) {
      std::uint64_t raw = 0;
      std::memcpy(&raw, &v, sizeof raw);
      u64(raw);
    } else if constexpr (std::is_signed_v<T>) {
      u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      u64(static_cast<std::uint64_t>(v));
    } else {
      u64(v.size());
      for (const auto kind : v) u64(static_cast<std::uint64_t>(kind));
    }
  }

  template <class Body>
  void group(const char* /*key*/, Body body, bool hashed = true) {
    if (hashed) body();
  }
};

}  // namespace

std::uint64_t ConfigHash(const ExperimentConfig& config, ManagerKind manager) {
  HashSink h{manager, {}};
  h.u64(4);  // hash-layout salt: bump when fields are added, removed or moved
  Fields(config, h);
  return snap::Fnv1a(h.bytes.data(), h.bytes.size());
}

// ---------------------------------------------------------------------------
// LiveRun
// ---------------------------------------------------------------------------

LiveRun::LiveRun(const SubstrateSnapshot& snapshot, ManagerKind manager_kind)
    : snapshot_(snapshot),
      manager_kind_(manager_kind),
      config_hash_(ConfigHash(snapshot.config(), manager_kind)),
      ctx_(snapshot),
      stream_(snapshot.make_submission_stream()),
      failure_rng_(snapshot.failure_rng()) {
  const ExperimentConfig& config = snapshot.config();
  const Rng base(config.seed);
  sim::Simulator& sim = ctx_.simulator();

  // --- manager under test (the factory owns the 4-way switch) -------------
  cluster::ManagerSpec spec;
  spec.kind = manager_kind;
  spec.expected_apps = config.trace.num_apps;
  spec.standalone_seed = base.fork(4).seed();
  spec.pool_seed = base.fork(5).seed();
  spec.allocator = config.allocator;
  manager_ =
      cluster::MakeManager(spec, sim, ctx_.cluster(), ctx_.block_locations());
  obs::Tracer* tracer = ctx_.tracer();
  manager_->set_tracer(tracer);

  // --- applications --------------------------------------------------------
  if (config.steady.enabled) {
    metrics_.set_warmup(config.steady.warmup);
    if (config.steady.streaming_metrics) metrics_.enable_streaming();
  }
  app::AppConfig app_config;
  app_config.dynamic_executors = manager_kind != ManagerKind::kStandalone;
  app_config.scheduler = config.scheduler;
  app_config.shuffle_fan_in = config.shuffle_fan_in;
  app_config.locality_swap = manager_kind == ManagerKind::kCustody;
  app_config.speculation = config.speculation;
  app_config.speculation_multiplier = config.speculation_multiplier;
  app_config.retire_finished_jobs =
      config.steady.enabled && config.steady.retire_jobs;

  for (int a = 0; a < config.trace.num_apps; ++a) {
    apps_.push_back(std::make_unique<app::Application>(
        AppId(static_cast<AppId::value_type>(a)), sim, ctx_.network(),
        ctx_.dfs(), ctx_.cluster(), metrics_, ids_,
        base.fork(10 + static_cast<std::uint64_t>(a)), app_config));
    if (ctx_.cache().enabled()) apps_.back()->attach_cache(&ctx_.cache());
    apps_.back()->attach_tracer(tracer);
    apps_.back()->attach_manager(*manager_);
  }

  // --- submission pump -----------------------------------------------------
  // A self-rescheduling event at the stream's head submission: the queue
  // never holds more than one future submission.
  if (!stream_.done()) arm_pump();

  // --- failure injection ---------------------------------------------------
  for (const auto& app : apps_) handles_.push_back(app.get());
  for (int k = 0; k < config.node_failures; ++k) {
    const SimTime when = config.failure_start + k * config.failure_interval;
    sim.post_at(when, [this] { fire_failure(); });
    if (k == 0) first_failure_seq_ = sim.last_event_seq();
  }
}

void LiveRun::submit_one(const Submission& s) {
  const Dataset& dataset = ctx_.datasets().at(s.kind);
  const FileId file = dataset.files.at(s.file_index);
  apps_[static_cast<std::size_t>(s.app_index)]->submit_job(
      MakeJobSpec(s.kind, file, ctx_.dfs(), snapshot_.config().params));
}

void LiveRun::arm_pump() {
  ctx_.simulator().post_at(stream_.peek().time, [this] { fire_pump(); });
  pump_seq_ = ctx_.simulator().last_event_seq();
}

void LiveRun::fire_pump() {
  // Arm the next arrival first, so the pump event takes its seq before the
  // new job's events take theirs.
  const Submission s = stream_.next();
  if (!stream_.done()) arm_pump();
  submit_one(s);
}

void LiveRun::fire_failure() {
  ++failures_fired_;
  const auto alive = ctx_.cluster().alive_nodes();
  if (alive.size() > 1) inject_failure(failure_rng_.pick(alive));
}

void LiveRun::inject_failure(NodeId node) {
  cluster::Cluster& cluster = ctx_.cluster();
  const auto alive = cluster.alive_nodes();
  if (alive.size() <= 1) return;
  if (std::find(alive.begin(), alive.end(), node) == alive.end()) return;
  dfs::BlockCache& cache = ctx_.cache();
  InjectNodeFailure(cluster, ctx_.dfs(), cache.enabled() ? &cache : nullptr,
                    handles_, *manager_, node, ctx_.tracer());
  ++nodes_failed_;
}

void LiveRun::run() { ctx_.simulator().run(); }

bool LiveRun::run(RunControl* control) {
  if (control == nullptr) {
    run();
    return true;
  }
  // Simulator::run() is exactly `while (step())`, so driving step() here is
  // bit-identical; the control work happens strictly between events.
  sim::Simulator& sim = ctx_.simulator();
  const std::uint64_t every = std::max<std::uint64_t>(control->progress_every,
                                                      1);
  for (;;) {
    if (control->cancel_requested()) return false;
    bool drained_now = false;
    for (std::uint64_t i = 0; i < every; ++i) {
      if (!sim.step()) {
        drained_now = true;
        break;
      }
    }
    if (control->on_progress) control->on_progress(progress());
    if (drained_now) return true;
  }
}

RunProgress LiveRun::progress() {
  RunProgress p;
  p.events_processed = ctx_.simulator().events_processed();
  p.sim_time = ctx_.simulator().now();
  for (const auto& app : apps_) {
    p.jobs_completed += app->jobs_completed();
    p.jobs_retired += app->jobs_retired();
  }
  return p;
}

void LiveRun::set_arrival_rate_scale(double factor) {
  stream_.set_rate_scale(factor);
}

void LiveRun::run_until(SimTime until) { ctx_.simulator().run_until(until); }

bool LiveRun::drained() {
  // run()/run_until() drop lazily-cancelled entries as they surface, so an
  // empty queue really means no live events remain.
  return ctx_.simulator().queue_size() == 0;
}

template <class Self, class Io>
void LiveRun::Sections(Self& self, Io& io) {
  sim::Simulator& sim = self.ctx_.simulator();
  std::uint64_t events_processed = sim.events_processed();
  std::uint64_t next_seq = sim.last_event_seq() + 1;  // the queue's next_seq
  snap::Section(io, "SIM ", [&] {
    io.u64(events_processed);
    io.u64(next_seq);
  });
  if constexpr (Io::kLoading) {
    // Everything construction armed is dropped; each layer re-arms its own
    // events from descriptors below.  The clock must be restored first so
    // re-arms pass the not-in-the-past check and sort below next_seq.
    sim.clear_events();
    sim.restore_clock(io.sim_time(), events_processed, next_seq);
  }
  snap::Section(io, "IDS ", [&] {
    io.u32(self.ids_.next_task);
    io.u32(self.ids_.next_job);
  });
  // DFS and cache before applications: the rebuilt ReadyTaskIndex derives
  // locality from the restored replica/cached-copy state.
  snap::Section(io, "DFS ", [&] { io.layer(self.ctx_.dfs()); });
  snap::Section(io, "CACH", [&] { io.layer(self.ctx_.cache()); });
  snap::Section(io, "NET ", [&] {
    io.layer(self.ctx_.network(),
             [&self](FlowId flow, const net::FlowLabel& label, NodeId src,
                     NodeId dst) {
               if (label.c >= self.apps_.size()) {
                 throw snap::SnapshotError(
                     "flow label names unknown application " +
                     std::to_string(label.c));
               }
               return self.apps_[static_cast<std::size_t>(label.c)]
                   ->rebuild_flow_callback(flow, label, src, dst);
             });
  });
  snap::Section(io, "CLUS", [&] { io.layer(self.ctx_.cluster()); });
  snap::Section(io, "MGR ", [&] { io.layer(*self.manager_); });
  snap::Section(io, "APPS", [&] {
    std::size_t count = self.apps_.size();
    io.size(count);
    if (count != self.apps_.size()) {
      throw snap::SnapshotError("snapshot holds " + std::to_string(count) +
                                " applications, this run has " +
                                std::to_string(self.apps_.size()));
    }
    for (const auto& app : self.apps_) io.layer(*app);
  });
  snap::Section(io, "METR", [&] { io.layer(self.metrics_); });
  snap::Section(io, "SUBS", [&] {
    io.layer(self.stream_);  // checks the head is at or after the sim time
    // The pump is armed at the stream's head time.
    if (!self.stream_.done()) io.u64(self.pump_seq_);
  });
  snap::Section(io, "FAIL", [&] {
    io.i64(self.failures_fired_);
    io.i64(self.nodes_failed_);
    io.u64(self.first_failure_seq_);
    io.layer(self.failure_rng_);
  });
}

std::vector<std::uint8_t> LiveRun::save() {
  if (ctx_.tracer() != nullptr) {
    throw snap::SnapshotError(
        "tracing buffers are not snapshotted; disable tracing.enabled to"
        " checkpoint");
  }
  snap::SnapshotWriter w;
  Sections(*this, w);
  return w.finish(config_hash_, ctx_.simulator().now());
}

namespace {

std::string Hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

}  // namespace

void LiveRun::restore(const std::vector<std::uint8_t>& bytes) {
  snap::SnapshotReader r(bytes);
  if (r.config_hash() != config_hash_) {
    throw snap::SnapshotError(
        "checkpoint.resume_path: config hash mismatch (snapshot " +
        Hex(r.config_hash()) + ", this run " + Hex(config_hash_) +
        ") — a snapshot only restores onto the identical config + manager");
  }
  Sections(*this, r);
  sim::Simulator& sim = ctx_.simulator();
  if (!stream_.done()) {
    sim.rearm_detached_at(stream_.peek().time, pump_seq_,
                          [this] { fire_pump(); });
  }
  const ExperimentConfig& config = snapshot_.config();
  if (failures_fired_ < 0 || failures_fired_ > config.node_failures) {
    throw snap::SnapshotError("failure-injection progress out of range");
  }
  for (int k = failures_fired_; k < config.node_failures; ++k) {
    const SimTime when = config.failure_start + k * config.failure_interval;
    sim.rearm_detached_at(when, first_failure_seq_ + static_cast<unsigned>(k),
                          [this] { fire_failure(); });
  }
  if (!r.exhausted()) {
    throw snap::SnapshotError("trailing bytes after the last section");
  }
}

ExperimentResult LiveRun::collect() {
  const ExperimentConfig& config = snapshot_.config();
  net::Network& net = ctx_.network();
  const net::NetStats& ns = net.stats();

  ExperimentResult result;
  result.manager_name = ManagerName(manager_kind_);
  // The summary methods compute exactly Summarize(<sample vector>) in the
  // exact mode and P²-based summaries in streaming mode — one collect path
  // serves both.
  result.job_locality = metrics_.job_locality_summary();
  result.overall_task_locality_percent =
      metrics_.overall_input_locality_percent();
  result.local_job_percent = metrics_.local_job_percent();
  result.jct = metrics_.jct_summary();
  result.input_stage = metrics_.input_stage_summary();
  result.sched_delay = metrics_.sched_delay_summary();
  result.per_app_local_job_fraction = metrics_.per_app_local_job_fraction(
      static_cast<std::size_t>(config.trace.num_apps));
  result.manager_stats = manager_->stats();
  result.round_wall = manager_->round_wall();
  result.round_yield_fraction = manager_->round_yield_fraction();
  result.net_stats = {
      ns.recomputes_requested, ns.recomputes_run, ns.recomputes_batched(),
      ns.flows_scanned, ns.links_scanned, ns.rounds, ns.components_total,
      ns.components_dirty, ns.rates_changed, /*completion_rescans=*/0,
      ns.wall_seconds};
  result.net_bytes_delivered = net.bytes_delivered();
  result.cache_insertions = ctx_.cache().stats().insertions;
  result.cache_hits = ctx_.cache().stats().hits;
  result.nodes_failed = nodes_failed_;
  result.makespan = metrics_.makespan();
  result.events_processed = ctx_.simulator().events_processed();
  result.trace = ctx_.tracer() != nullptr ? ctx_.tracer()->buffer() : nullptr;
  for (const auto& app : apps_) {
    result.jobs_completed += app->jobs_completed();
    result.jobs_retired += app->jobs_retired();
    result.peak_live_tasks += app->peak_live_tasks();
    result.launches_local += app->launch_breakdown().local;
    result.launches_covered_busy += app->launch_breakdown().covered_busy;
    result.launches_uncovered += app->launch_breakdown().uncovered;
    result.speculative_launches += app->speculative_launches();
    result.speculative_wins += app->speculative_wins();
    result.app_work += app->work();
  }
  return result;
}

// ---------------------------------------------------------------------------
// RunOnSnapshot
// ---------------------------------------------------------------------------

namespace {

std::string CheckpointPath(const std::string& directory, int ordinal) {
  char name[32];
  std::snprintf(name, sizeof name, "checkpoint-%04d.snap", ordinal);
  return directory + "/" + name;
}

/// The manifest sidecar next to each checkpoint file: the metadata a
/// resume (or a human) needs without parsing the binary snapshot.
void WriteManifest(const std::string& snapshot_path, std::uint64_t config_hash,
                   double sim_time, const char* manager, std::uint64_t seed) {
  std::ostringstream out;
  out << "{\n"
      << "  \"schema_version\": " << snap::kFormatVersion << ",\n"
      << "  \"config_hash\": \"" << Hex(config_hash) << "\",\n"
      << "  \"sim_time\": " << std::setprecision(17) << sim_time << ",\n"
      << "  \"manager\": \"" << manager << "\",\n"
      << "  \"seed\": " << seed << "\n"
      << "}\n";
  const std::string path = snapshot_path + ".json";
  std::ofstream file(path, std::ios::trunc);
  file << out.str();
  if (!file.good()) {
    throw snap::SnapshotError("cannot write manifest " + path);
  }
}

}  // namespace

ExperimentResult RunOnSnapshot(const SubstrateSnapshot& snapshot,
                               ManagerKind manager_kind,
                               RunControl* control) {
  Logger::init_from_env();
  const CheckpointConfig& ckpt = snapshot.config().checkpoint;
  LiveRun run(snapshot, manager_kind);
  if (!ckpt.resume_path.empty()) {
    run.restore(snap::ReadFile(ckpt.resume_path));
  }
  if (ckpt.every > 0.0) {
    int ordinal = 0;
    while (!run.drained()) {
      if (control != nullptr && control->cancel_requested()) {
        throw RunCancelled();
      }
      run.run_until(run.simulator().now() + ckpt.every);
      if (control != nullptr && control->on_progress) {
        control->on_progress(run.progress());
      }
      if (run.drained()) break;
      const std::string path = CheckpointPath(ckpt.directory, ++ordinal);
      snap::WriteFile(path, run.save());
      WriteManifest(path, run.config_hash(), run.simulator().now(),
                    ManagerName(manager_kind), snapshot.config().seed);
    }
  } else {
    if (!run.run(control)) throw RunCancelled();
  }
  return run.collect();
}

}  // namespace custody::workload
