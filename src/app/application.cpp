#include "app/application.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/log.h"
#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::app {

namespace {

// FlowLabel callback kinds — the application's private recipe for
// rebuilding a restored flow's completion callback (a = task id, b = task
// epoch, c = app id; see flow_fn).  An input read's kind names its attempt.
constexpr std::uint32_t kFlowInputRead = 1;  // attempt 0
constexpr std::uint32_t kFlowCloneRead = 2;  // attempt 1
constexpr std::uint32_t kFlowShuffleFetch = 3;

void FoldRetry(std::optional<SimTime>& earliest,
               const std::optional<SimTime>& at) {
  if (at && (!earliest || *at < *earliest)) earliest = at;
}

// One attempt's fields.  Restore leaves re-arming the timer to the caller,
// which does so only once the whole section has validated.
template <class Io, class A>
void AttemptFields(Io& io, A& a) {
  io.u32(a.executor);
  io.b(a.local);
  io.f64(a.compute_start);
  snap::EnumU8(io, a.pending_kind, TimerKind::kCompute,
               "Application: bad attempt timer kind ");
  if (a.pending_kind != TimerKind::kNone) {
    io.f64(a.pending_time);
    io.u64(a.pending_seq);
  }
  io.u32(a.pending_flow);
}

}  // namespace

WorkCounters& WorkCounters::operator+=(const WorkCounters& other) {
  kicks += other.kicks;
  kick_probes += other.kick_probes;
  launches += other.launches;
  release_checks += other.release_checks;
  release_verdicts += other.release_verdicts;
  release_blocks_walked += other.release_blocks_walked;
  free_ids_copied += other.free_ids_copied;
  return *this;
}

Application::Application(AppId id, sim::Simulator& sim, net::Network& net,
                         const dfs::Dfs& dfs, cluster::Cluster& cluster,
                         metrics::MetricsCollector& metrics, IdSource& ids,
                         Rng rng, AppConfig config)
    : id_(id),
      sim_(sim),
      net_(net),
      dfs_(dfs),
      cluster_(cluster),
      metrics_(metrics),
      ids_(ids),
      rng_(rng),
      config_(config),
      index_(dfs),
      scheduler_(config.scheduler, index_) {
  watch_local_ready_nodes();
  dfs_listener_ = dfs_.add_replica_listener(
      [this](BlockId block, NodeId node, bool added) {
        if (added) {
          index_.replica_added(block, node);
        } else {
          index_.replica_removed(block, node);
        }
      });
}

Application::~Application() {
  dfs_.remove_replica_listener(dfs_listener_);
  if (cache_ != nullptr) cache_->remove_change_listener(cache_listener_);
}

void Application::attach_manager(cluster::ClusterManager& manager) {
  manager_ = &manager;
  manager.register_app(*this);
}

void Application::attach_cache(dfs::BlockCache* cache) {
  cache_ = cache;
  if (cache != nullptr) {
    index_.set_cache(cache);
    cache_listener_ = cache->add_change_listener(
        [this](BlockId block, NodeId node, bool cached) {
          if (cached) {
            index_.replica_added(block, node);
          } else {
            index_.replica_removed(block, node);
          }
        });
  }
}

void Application::attach_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

void Application::watch_local_ready_nodes() {
  index_.set_listener([this](NodeId node, bool local_ready) {
    cluster_.set_watched(id_, node, local_ready);
  });
}

const std::vector<NodeId>& Application::locations_of(BlockId block) const {
  if (cache_ != nullptr) return cache_->merged_locations(block);
  return dfs_.locations(block);
}

Task& Application::task(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::logic_error("Application: unknown task");
  return it->second;
}

const Task& Application::task(TaskId id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::logic_error("Application: unknown task");
  return it->second;
}

Task* Application::find_task(TaskId id) {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

Job& Application::job(JobId id) {
  const auto it = jobs_by_id_.find(id);
  if (it == jobs_by_id_.end()) {
    throw std::logic_error("Application: unknown job");
  }
  return *it->second;
}

const Job* Application::find_job(JobId id) const {
  const auto it = jobs_by_id_.find(id);
  return it == jobs_by_id_.end() ? nullptr : it->second.get();
}

JobId Application::submit_job(const JobSpec& spec) {
  if (manager_ == nullptr) {
    throw std::logic_error("Application: attach_manager before submit_job");
  }
  const SimTime now = sim_.now();
  auto owned = std::make_unique<Job>();
  Job& j = *owned;
  j.id = JobId(ids_.next_job++);
  j.app = id_;
  j.name = spec.name;
  j.input_file = spec.input_file;
  j.submit_time = now;

  // Stage 0: one input task per block of the input file.
  const auto& blocks = dfs_.blocks_of(spec.input_file);
  Stage input_stage;
  input_stage.index = 0;
  for (BlockId b : blocks) {
    Task t;
    t.id = TaskId(ids_.next_task++);
    t.job = j.id;
    t.stage = 0;
    t.index = static_cast<int>(input_stage.tasks.size());
    t.block = b;
    t.input_bytes = dfs_.block(b).bytes;
    t.compute_secs = spec.input_compute_secs_per_byte * t.input_bytes;
    input_stage.tasks.push_back(t.id);
    tasks_.emplace(t.id, std::move(t));
  }
  j.input_tasks = static_cast<int>(input_stage.tasks.size());
  j.stages.push_back(std::move(input_stage));

  // Downstream (shuffle) stages.
  for (std::size_t s = 0; s < spec.downstream.size(); ++s) {
    const ShuffleStageSpec& sspec = spec.downstream[s];
    Stage stage;
    stage.index = static_cast<int>(s + 1);
    for (int i = 0; i < sspec.num_tasks; ++i) {
      Task t;
      t.id = TaskId(ids_.next_task++);
      t.job = j.id;
      t.stage = stage.index;
      t.index = i;
      t.input_bytes = sspec.shuffle_bytes / sspec.num_tasks;
      t.compute_secs = sspec.compute_secs_per_task;
      stage.tasks.push_back(t.id);
      tasks_.emplace(t.id, std::move(t));
    }
    j.stages.push_back(std::move(stage));
  }

  active_jobs_.push_back(&j);
  jobs_by_id_.emplace(j.id, std::move(owned));
  peak_live_tasks_ = std::max<std::uint64_t>(peak_live_tasks_, tasks_.size());

  // The input stage is runnable immediately; Custody's allocation round is
  // triggered by the demand change and runs before any executor could go
  // idle at this same instant, so jobs never wait on the allocator.
  mark_stage_ready(j, j.stages.front());
  manager_->on_demand_changed(*this);
  kick();
  return j.id;
}

void Application::mark_stage_ready(Job& j, Stage& stage) {
  const SimTime now = sim_.now();
  stage.ready_time = now;
  // The previous stage's distinct output nodes, ascending: each task
  // shuffles its own copy to choose the nodes it fetches from.
  std::vector<NodeId> outputs;
  if (stage.index > 0) {
    outputs = j.stages[static_cast<std::size_t>(stage.index) - 1].output_nodes;
    std::sort(outputs.begin(), outputs.end());
    outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
  }
  const auto fan_in = std::min<std::size_t>(
      outputs.size(), static_cast<std::size_t>(config_.shuffle_fan_in));
  std::vector<NodeId> sources;
  for (TaskId id : stage.tasks) {
    Task& t = task(id);
    assert(t.state == TaskState::kBlocked);
    t.state = TaskState::kReady;
    t.ready_time = now;
    if (stage.index > 0) {
      sources = outputs;
      rng_.shuffle(sources);
      t.fetch_sources.assign(sources.begin(), sources.begin() + fan_in);
    }
    index_.task_ready(t);
  }
}

std::vector<core::JobDemand> Application::pending_demand() const {
  // Nodes on which this app currently holds executors (busy or idle): a
  // block replicated there is considered satisfiable without new grants.
  // The cluster maintains dense per-node held counts incrementally, so one
  // coverage test is O(replicas) loads — no ledger scan, no binary search.
  const std::vector<int>* held_counts = cluster_.held_counts(id_);

  std::vector<core::JobDemand> demand;
  for (const Job* j : active_jobs_) {
    if (j->launched_input_tasks >= j->input_tasks) continue;
    core::JobDemand jd;
    jd.job = j->id.value();
    jd.total_tasks = j->input_tasks;
    // The ready input tasks, in id (== stage scan) order.
    for (TaskId id : index_.ready_inputs(j->id)) {
      const Task& t = task(id);
      const auto& locs = locations_of(t.block);
      const bool covered =
          held_counts != nullptr &&
          std::any_of(locs.begin(), locs.end(), [held_counts](NodeId n) {
            return (*held_counts)[n.value()] > 0;
          });
      if (!covered) jd.unsatisfied.push_back({t.id.value(), t.block});
    }
    demand.push_back(std::move(jd));
  }
  return demand;
}

int Application::wanted_executors() const {
  // Ready plus running tasks of the active jobs: every running task belongs
  // to an active job (jobs finish only after all their tasks do).
  return index_.ready_count() + running_tasks_;
}

core::LocalityStats Application::locality() const { return achieved_; }

void Application::on_executors_granted(std::span<const ExecutorId> execs) {
  for (const ExecutorId exec : execs) {
    assert(cluster_.executor(exec).owner == id_);
    if (tracer_ != nullptr) exec_idle_since_[exec] = sim_.now();
  }
  kick();
}

bool Application::consider_offer(ExecutorId /*exec*/, NodeId node) {
  const SimTime now = sim_.now();
  for (Job* j : active_jobs_) {
    // Downstream work has no locality constraint: accept immediately.
    if (index_.has_ready_other(j->id)) return true;
    if (j->launched_input_tasks >= j->input_tasks) continue;
    if (index_.has_local_ready_input(j->id, node)) return true;
    if (index_.has_ready_input(j->id)) {
      // A rejected offer starts the job's locality-wait clock, exactly
      // like skipping a slot under delay scheduling.
      if (!j->waiting_since_set()) j->wait_start = now;
      if (scheduler_.config().kind != SchedulerKind::kDelay ||
          now - j->wait_start >= scheduler_.config().locality_wait) {
        return true;  // waited long enough; settle for this node
      }
    }
  }
  return false;
}

void Application::kick() {
  if (in_kick_) return;  // avoid re-entrant scheduling storms
  in_kick_ = true;
  ++work_.kicks;
  std::optional<SimTime> earliest_retry;
  kick_walk(earliest_retry);
  in_kick_ = false;
  if (earliest_retry) arm_retry(*earliest_retry);
  maybe_release_idle_executors();
}

void Application::kick_walk(std::optional<SimTime>& earliest_retry) {
  // The sweep contract: every free executor, in id order, gets a full pick
  // or — when nothing launched — a straggler offer (the first candidate
  // local to its node, else the first candidate).  The walk produces that
  // outcome without visiting every free executor.  A "nothing
  // launchable" verdict decomposes into node-independent per-job facts (no
  // ready downstream work; input jobs inside their locality wait, with
  // wait_start stamped and the same retry expiry) plus one node-dependent
  // fact, "no job has a ready input local to this node".  `now` is fixed
  // for the kick and launches are the only mid-kick mutation, so after a
  // null verdict every later free executor on a node without local ready
  // input gets the same verdict, and its retry is already folded: such a
  // slot matters only as a clone offer.  The walk therefore visits, in id
  // order:
  //   - every free executor until the first null verdict (full picks);
  //   - after a null verdict, only the cluster's free-watched executors:
  //     the free executors this app holds on nodes in the ready index's
  //     local-ready set, which the index's node listener keeps watched.
  //     Launches only shrink that set, and each successor query reads it
  //     live; the node is re-checked on visit all the same.  A node with
  //     local ready input always launches under every scheduler kind;
  //   - after every launch, the next free executor in id order, whatever
  //     its node: its full pick re-stamps wait_start for a job whose local
  //     launch just reset it, as the contract requires;
  //   - while straggler candidates remain, every free executor, because
  //     each null slot clones one candidate.
  // So a visit either launches, or is the kick's first null verdict, or
  // directly follows a launch: kick_probes <= 2 * launches + kicks.
  // Straggler candidates are collected once, at the first null verdict:
  // mid-kick launches have launch_time == now and cannot be slow, and
  // clones only remove candidates.
  const SimTime now = sim_.now();
#ifndef NDEBUG
  const int owned_at_start = cluster_.owned_by(id_);
  std::size_t watched_before = cluster_.free_watched_count(id_);
#endif
  std::vector<Straggler>& stragglers = straggler_scratch_;
  stragglers.clear();
  bool stragglers_collected = false;
  bool have_null_verdict = false;
  ExecutorId::value_type from = 0;  // the walk visits ids >= from
  for (;;) {
    const ExecutorId exec = !have_null_verdict || !stragglers.empty()
                                ? cluster_.next_free_held(id_, from)
                                : cluster_.next_free_watched(id_, from);
    if (!exec.valid()) break;
    ++work_.kick_probes;
    from = exec.value() + 1;
    const cluster::Executor& e = cluster_.executor(exec);
    assert(e.owner == id_ && !e.busy);
#ifndef NDEBUG
    const std::size_t free_before = cluster_.free_held_count(id_);
#endif

    if (!have_null_verdict || index_.any_local_ready_input(e.node)) {
      std::optional<SimTime> retry_at;
      const auto pick = scheduler_.pick(e.node, now, active_jobs_, retry_at);
      have_null_verdict = !pick;
      if (pick) {
        Task& t = task(pick->task);
        t.local = pick->local;
        launch(t, exec);
      } else {
        FoldRetry(earliest_retry, retry_at);
        if (config_.speculation && !stragglers_collected) {
          collect_stragglers(stragglers);
          stragglers_collected = true;
        }
      }
    }
    // Nothing launched here: offer the free slot to a straggler clone.
    if (have_null_verdict) offer_to_straggler(exec, e.node, stragglers);

    // The invariants the walk relies on: ownership does not grow, only
    // the visited executor can turn busy (none becomes free), and no node
    // joins the local-ready set, so the free-watched set only shrinks.
    assert(cluster_.owned_by(id_) <= owned_at_start);
    assert(cluster_.free_held_count(id_) + (e.busy ? 1 : 0) == free_before);
#ifndef NDEBUG
    assert(cluster_.free_watched_count(id_) <= watched_before);
    watched_before = cluster_.free_watched_count(id_);
#endif
  }
}

void Application::collect_stragglers(std::vector<Straggler>& out) {
  const SimTime now = sim_.now();
  for (Job* j : active_jobs_) {
    const Stage& input = j->stages.front();
    if (j->running_inputs.empty() ||
        input.finished < config_.speculation_min_finished) {
      continue;
    }
    if (j->slow_after_finished != input.finished) {
      // Summed in input-task order: a running sum in finish order rounds
      // differently, which would move the slow threshold, the clone picks
      // and the golden result digests with them.
      double total_duration = 0.0;
      for (TaskId id : input.tasks) {
        const Task& t = task(id);
        if (t.state == TaskState::kFinished) {
          total_duration += t.finish_time - t.launch_time;
        }
      }
      j->slow_after =
          config_.speculation_multiplier * (total_duration / input.finished);
      j->slow_after_finished = input.finished;
    }
    // A task launched at `now` is never slow, which keeps the candidate set
    // shrink-only for the rest of the kick.
    assert(j->slow_after >= 0.0);
    for (TaskId id : j->running_inputs) {
      const Task& t = task(id);
      if (t.spec_active || now - t.launch_time <= j->slow_after) continue;
      out.push_back({id, t.block});
    }
  }
}

void Application::offer_to_straggler(ExecutorId exec, NodeId node,
                                     std::vector<Straggler>& candidates) {
  if (candidates.empty()) return;
  auto it = std::find_if(
      candidates.begin(), candidates.end(),
      [&](const Straggler& s) { return index_.is_local(s.block, node); });
  if (it == candidates.end()) it = candidates.begin();
  const TaskId slow = it->task;
  candidates.erase(it);
  launch_clone(task(slow), exec);
}

void Application::track_running_input(Job& j, const Task& t, bool running) {
  if (!config_.speculation || !t.is_input()) return;
  std::vector<TaskId>& ids = j.running_inputs;
  const auto pos = std::lower_bound(ids.begin(), ids.end(), t.id);
  if (running) {
    ids.insert(pos, t.id);
  } else if (pos != ids.end() && *pos == t.id) {
    ids.erase(pos);
  }
}

void Application::arm_retry(SimTime at) {
  if (retry_time_ >= 0.0 && retry_time_ <= at && retry_event_.valid() &&
      !retry_event_.cancelled()) {
    return;  // an earlier (or equal) retry is already pending
  }
  retry_event_.cancel();
  retry_time_ = at;
  const SimTime delay = std::max(0.0, at - sim_.now());
  retry_event_ = sim_.schedule(delay, [this] {
    retry_time_ = -1.0;
    kick();
  });
  retry_armed_time_ = sim_.now() + delay;
  retry_seq_ = sim_.last_event_seq();
}

sim::EventFn Application::timer_fn(TaskId id, std::uint32_t epoch,
                                  TimerKind kind, int attempt) {
  return [this, id, epoch, kind, attempt] {
    Task* found = find_task(id);
    if (found == nullptr || found->epoch != epoch) return;
    found->attempt(attempt).pending_kind = TimerKind::kNone;
    if (kind == TimerKind::kRead) {
      start_compute(*found, attempt);
    } else {
      finish_attempt(*found, attempt);
    }
  };
}

void Application::arm_timer(Task& t, int attempt, TimerKind kind,
                            double delay) {
  Attempt& a = t.attempt(attempt);
  a.pending_event =
      sim_.schedule(delay, timer_fn(t.id, t.epoch, kind, attempt));
  a.pending_kind = kind;
  a.pending_time = sim_.now() + delay;
  a.pending_seq = sim_.last_event_seq();
}

net::Network::CompletionFn Application::flow_fn(const net::FlowLabel& label,
                                                NodeId dst) {
  const TaskId id(label.a);
  const std::uint32_t ep = label.b;
  switch (label.kind) {
    case kFlowInputRead:
    case kFlowCloneRead: {
      const int attempt = label.kind == kFlowCloneRead ? 1 : 0;
      return [this, id, ep, attempt, node = dst] {
        Task* fetched = find_task(id);
        if (fetched == nullptr || fetched->epoch != ep) return;
        fetched->attempt(attempt).pending_flow = FlowId::invalid();
        if (cache_ != nullptr) cache_->insert(node, fetched->block);
        start_compute(*fetched, attempt);
      };
    }
    case kFlowShuffleFetch:
      return [this, id, ep] {
        Task* fetched = find_task(id);
        if (fetched == nullptr || fetched->epoch != ep) return;
        if (--fetched->fetches_outstanding == 0) start_compute(*fetched, 0);
      };
    default:
      throw snap::SnapshotError("Application: unknown flow label kind " +
                                std::to_string(label.kind));
  }
}

void Application::launch(Task& t, ExecutorId exec) {
  assert(t.state == TaskState::kReady);
  const SimTime now = sim_.now();
  cluster::Executor& e = cluster_.executor(exec);
  assert(!e.busy && e.owner == id_);
  cluster_.set_busy(exec, true);
  ++work_.launches;
  index_.task_unready(t);
  t.state = TaskState::kRunning;
  ++running_tasks_;
  t.executor = exec;
  t.launch_time = now;

  Job& j = job(t.job);
  scheduler_.on_launched(j, t);
  track_running_input(j, t, true);

  // Tracing: how long the task waited, on which executor it landed, and —
  // for input tasks — why it launched the way it did.  `value` carries when
  // the executor last went idle so the analyzer can split the wait into
  // executor-wait vs scheduler delay.
  const auto trace_wait = [&](std::int32_t verdict) {
    double idle_since = -1.0;
    const auto idle = exec_idle_since_.find(exec);
    if (idle != exec_idle_since_.end()) idle_since = idle->second;
    tracer_->record({.t0 = t.ready_time,
                     .t1 = now,
                     .value = idle_since,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(t.job),
                     .id = obs::IdOf(t.id),
                     .stage = t.stage,
                     .node = obs::IdOf(e.node),
                     .block = obs::IdOf(t.block),
                     .aux = verdict,
                     .kind = obs::EventKind::kTaskWait});
  };

  if (t.is_input()) {
    ++j.launched_input_tasks;
    ++achieved_.total_tasks;
    std::int32_t verdict = obs::kVerdictLocal;
    if (t.local) {
      ++j.local_input_tasks;
      ++achieved_.local_tasks;
      ++breakdown_.local;
    } else {
      const auto& locs = dfs_.locations(t.block);
      const bool covered = std::any_of(
          locs.begin(), locs.end(),
          [this](NodeId n) { return cluster_.holds_on(id_, n); });
      if (covered) {
        ++breakdown_.covered_busy;
        verdict = obs::kVerdictCoveredBusy;
      } else {
        ++breakdown_.uncovered;
        verdict = obs::kVerdictUncovered;
      }
    }
    if (tracer_ != nullptr) trace_wait(verdict);
    start_input_read(t, 0);
    return;
  }

  // Downstream task: fetch shuffle partitions from previous-stage nodes.
  if (tracer_ != nullptr) trace_wait(obs::kVerdictNonInput);
  std::vector<NodeId> remote;
  double local_bytes = 0.0;
  for (NodeId src : t.fetch_sources) {
    if (src == e.node) {
      local_bytes += t.input_bytes / t.fetch_sources.size();
    } else {
      remote.push_back(src);
    }
  }
  t.fetches_outstanding = static_cast<int>(remote.size());
  if (t.fetches_outstanding == 0) {
    // Everything is on this node (or the task has no input at all).
    const double read_secs =
        t.input_bytes > 0.0 ? t.input_bytes / cluster_.disk_bps(e.node) : 0.0;
    arm_timer(t, 0, TimerKind::kRead, read_secs);
    return;
  }
  const double bytes_per_source =
      t.input_bytes / static_cast<double>(t.fetch_sources.size());
  (void)local_bytes;  // local portion is read while remote fetches stream in
  const net::FlowLabel label{.kind = kFlowShuffleFetch,
                             .a = t.id.value(),
                             .b = t.epoch,
                             .c = id_.value()};
  for (NodeId src : remote) {
    net_.start_flow(src, e.node, bytes_per_source, flow_fn(label, e.node),
                    label);
  }
}

void Application::launch_clone(Task& t, ExecutorId exec) {
  assert(t.state == TaskState::kRunning && t.is_input() && !t.spec_active);
  cluster::Executor& e = cluster_.executor(exec);
  assert(!e.busy && e.owner == id_);
  cluster_.set_busy(exec, true);
  ++work_.launches;
  t.spec_active = true;
  t.clone.executor = exec;
  t.clone.local = index_.is_local(t.block, e.node);
  ++spec_launches_;
  if (tracer_ != nullptr) {
    tracer_->instant({.app = obs::IdOf(id_),
                      .job = obs::IdOf(t.job),
                      .id = obs::IdOf(t.id),
                      .stage = t.stage,
                      .node = obs::IdOf(e.node),
                      .block = obs::IdOf(t.block),
                      .aux = t.clone.local ? 1 : 0,
                      .kind = obs::EventKind::kSpecLaunch});
  }
  start_input_read(t, 1);
}

void Application::start_input_read(Task& t, int attempt) {
  Attempt& a = t.attempt(attempt);
  const NodeId node = cluster_.node_of(a.executor);
  if (a.local) {
    // Disk replica or cached copy; cached reads run at memory speed.
    const bool on_disk = dfs_.is_local(t.block, node);
    if (!on_disk && cache_ != nullptr) {
      cache_->record_cached_read(node, t.block);
    }
    const double rate =
        on_disk ? cluster_.disk_bps(node) : cluster_.config().memory_bps;
    arm_timer(t, attempt, TimerKind::kRead, t.input_bytes / rate);
    return;
  }
  // Remote read: stream the block from a replica (or cached copy) over the
  // network; the receiving node caches what it pulled.
  const auto& locs = locations_of(t.block);
  assert(!locs.empty());
  const NodeId src = rng_.pick(locs);
  // The ready index, which judged this attempt non-local, and
  // locations_of hold the same disk replicas and cached copies, so the
  // attempt's own node is never among the sources.
  assert(src != node);
  const net::FlowLabel label{
      .kind = attempt == 0 ? kFlowInputRead : kFlowCloneRead,
      .a = t.id.value(),
      .b = t.epoch,
      .c = id_.value()};
  a.pending_flow =
      net_.start_flow(src, node, t.input_bytes, flow_fn(label, node), label);
}

void Application::start_compute(Task& t, int attempt) {
  if (t.state != TaskState::kRunning || (attempt == 1 && !t.spec_active)) {
    return;
  }
  Attempt& a = t.attempt(attempt);
  a.compute_start = sim_.now();
  const double speed = cluster_.node_speed(cluster_.node_of(a.executor));
  arm_timer(t, attempt, TimerKind::kCompute, t.compute_secs / speed);
}

void Application::abort_attempt(Attempt& a) {
  a.pending_event.cancel();
  a.pending_kind = TimerKind::kNone;
  if (a.pending_flow.valid() && net_.flow_active(a.pending_flow)) {
    net_.cancel_flow(a.pending_flow);
  }
  a.pending_flow = FlowId::invalid();
  // An executor lost with its node has already left the ledger.
  if (cluster_.executor_alive(a.executor)) {
    cluster_.set_busy(a.executor, false);
    if (tracer_ != nullptr) exec_idle_since_[a.executor] = sim_.now();
  }
}

void Application::finish_attempt(Task& t, int attempt) {
  if (t.state != TaskState::kRunning) return;  // a stale completion
  if (attempt == 1) {
    // The clone won: abort the primary and adopt the clone's executor,
    // locality and compute start.
    ++spec_wins_;
    abort_attempt(t.attempt(0));
    t.attempt(0) = t.clone;
  } else if (t.spec_active) {
    // The primary won: abort the clone and free its executor.
    abort_attempt(t.clone);
  }
  t.spec_active = false;
  finish_task(t);
}

void Application::reset_task(Task& t) {
  assert(t.state == TaskState::kRunning);
  abort_attempt(t.attempt(0));
  if (t.spec_active) {
    abort_attempt(t.clone);
    t.spec_active = false;
  }
  if (tracer_ != nullptr) {
    tracer_->instant({.app = obs::IdOf(id_),
                      .job = obs::IdOf(t.job),
                      .id = obs::IdOf(t.id),
                      .stage = t.stage,
                      .node = obs::IdOf(cluster_.node_of(t.executor)),
                      .block = obs::IdOf(t.block),
                      .kind = obs::EventKind::kTaskReset});
  }
  // Undo the launch-time accounting: the re-execution counts afresh.
  Job& j = job(t.job);
  track_running_input(j, t, false);
  if (t.is_input()) {
    --j.launched_input_tasks;
    --achieved_.total_tasks;
    if (t.local) {
      --j.local_input_tasks;
      --achieved_.local_tasks;
    }
  }
  ++t.epoch;  // orphan every remaining callback of the old attempts
  t.state = TaskState::kReady;
  --running_tasks_;
  t.ready_time = sim_.now();
  t.executor = ExecutorId::invalid();
  t.local = false;
  t.fetches_outstanding = 0;
  index_.task_ready(t);
}

void Application::on_executor_lost(ExecutorId exec) {
  bool lost_work = false;
  for (Job* j : active_jobs_) {
    for (Stage& stage : j->stages) {
      for (TaskId id : stage.tasks) {
        Task& t = task(id);
        if (t.state != TaskState::kRunning) continue;
        if (t.executor == exec) {
          // The primary attempt died with the node; restart from ready.
          reset_task(t);
          lost_work = true;
        } else if (t.spec_active && t.clone.executor == exec) {
          // Only the clone died; the primary attempt keeps running.
          abort_attempt(t.clone);
          t.spec_active = false;
          lost_work = true;
        }
      }
    }
  }
  if (lost_work) {
    manager_->on_demand_changed(*this);
    kick();
  }
}

void Application::finish_task(Task& t) {
  assert(t.state == TaskState::kRunning);
  const SimTime now = sim_.now();
  t.state = TaskState::kFinished;
  --running_tasks_;
  t.finish_time = now;
  cluster_.set_busy(t.executor, false);

  if (tracer_ != nullptr) {
    exec_idle_since_[t.executor] = now;
    const std::int32_t node = obs::IdOf(cluster_.node_of(t.executor));
    // Read/fetch span (launch → compute start) then compute span
    // (compute start → finish); a clone win folds the primary's wasted
    // read into the read span (compute_start is the winner's).
    tracer_->record({.t0 = t.launch_time,
                     .t1 = t.compute_start,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(t.job),
                     .id = obs::IdOf(t.id),
                     .stage = t.stage,
                     .node = node,
                     .block = obs::IdOf(t.block),
                     .aux = t.is_input() ? (t.local ? 1 : 0) : -1,
                     .kind = t.is_input() ? obs::EventKind::kTaskInputRead
                                          : obs::EventKind::kTaskShuffleRead});
    tracer_->record({.t0 = t.compute_start,
                     .t1 = now,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(t.job),
                     .id = obs::IdOf(t.id),
                     .stage = t.stage,
                     .node = node,
                     .kind = obs::EventKind::kTaskCompute});
  }

  metrics::TaskRecord record;
  record.app = id_;
  record.job = t.job;
  record.stage = t.stage;
  record.is_input = t.is_input();
  record.local = t.local;
  record.ready_time = t.ready_time;
  record.launch_time = t.launch_time;
  record.finish_time = t.finish_time;
  metrics_.record_task(record);

  Job& j = job(t.job);
  track_running_input(j, t, false);
  Stage& stage = j.stages[static_cast<std::size_t>(t.stage)];
  stage.output_nodes.push_back(cluster_.node_of(t.executor));
  ++stage.finished;
  if (stage.complete()) complete_stage(j, stage);

  kick();
}

void Application::complete_stage(Job& j, Stage& stage) {
  const SimTime now = sim_.now();
  if (tracer_ != nullptr) {
    tracer_->record({.t0 = stage.ready_time,
                     .t1 = now,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(j.id),
                     .stage = stage.index,
                     .kind = obs::EventKind::kStageSpan});
  }
  if (stage.index == 0) {
    j.input_stage_finish = now;
    ++achieved_.total_jobs;
    if (j.local_input_tasks == j.input_tasks) ++achieved_.local_jobs;
  }
  const auto next = static_cast<std::size_t>(stage.index) + 1;
  if (next < j.stages.size()) {
    mark_stage_ready(j, j.stages[next]);
  } else {
    finish_job(j);
  }
}

void Application::finish_job(Job& j) {
  const SimTime now = sim_.now();
  j.finished = true;
  j.finish_time = now;
  ++jobs_completed_;
  if (tracer_ != nullptr) {
    tracer_->record({.t0 = j.submit_time,
                     .t1 = now,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(j.id),
                     .kind = obs::EventKind::kJobSpan});
  }
  active_jobs_.erase(std::remove(active_jobs_.begin(), active_jobs_.end(), &j),
                     active_jobs_.end());

  metrics::JobRecord record;
  record.app = id_;
  record.job = j.id;
  record.submit_time = j.submit_time;
  record.input_stage_finish = j.input_stage_finish;
  record.finish_time = j.finish_time;
  record.input_tasks = j.input_tasks;
  record.local_input_tasks = j.local_input_tasks;
  metrics_.record_job(record);

  LOG_DEBUG << "app " << id_ << ": job " << j.id << " (" << j.name
            << ") finished in " << j.finish_time - j.submit_time << "s";

  // Free the metadata of finished tasks; ids are never reused.
  for (const Stage& stage : j.stages) {
    for (TaskId id : stage.tasks) tasks_.erase(id);
  }
  index_.job_removed(j.id);

  if (config_.retire_finished_jobs) {
    // Steady-state retirement: the job record (stages included) is freed.
    // finish_job is the last user of this Job — every caller up the stack
    // only kick()s afterwards, so nothing dangles.
    const JobId id = j.id;
    jobs_by_id_.erase(id);
    ++jobs_retired_;
  }

  manager_->on_demand_changed(*this);
}

bool Application::pool_has_useful_executor(
    std::uint64_t& blocks_walked) const {
  // Demand-driven form of the old two-ledger-scan check: for each ready
  // input task not already covered by a held executor, ask the idle index
  // whether any replica node has an unallocated executor (block -> node ->
  // idle lookup), instead of materializing the whole pool's node set.
  if (cluster_.idle_count() == 0) return false;
  // Dense per-node held counts: O(1) membership per replica instead of a
  // binary search over a materialized held-node list.
  const std::vector<int>* held_counts = cluster_.held_counts(id_);

  const auto useful_block = [&](BlockId block) {
    const auto& locs = locations_of(block);
    const bool covered =
        held_counts != nullptr &&
        std::any_of(locs.begin(), locs.end(), [held_counts](NodeId n) {
          return (*held_counts)[n.value()] > 0;
        });
    if (covered) return false;  // a held executor can serve it
    for (const NodeId n : locs) {
      if (cluster_.first_idle_on(n).valid()) return true;
    }
    return false;
  };
  // The verdict is a pure existence check and depends on a ready input task
  // only through its block, so walk the index's distinct blocks with ready
  // input tasks instead of every task of every job: tasks sharing a block
  // share the answer.  Visit order doesn't matter for a bool.
  return index_.any_ready_block([&](BlockId block) {
    ++blocks_walked;
    return useful_block(block);
  });
}

void Application::maybe_release_idle_executors() {
  if (!config_.dynamic_executors) return;
  ++work_.release_checks;

  // Only free executors can be released.
  const std::size_t free = cluster_.free_held_count(id_);
  if (free == 0) return;
  const bool has_ready_work = index_.ready_count() > 0;
  if (has_ready_work) {
    // With ready work, only the free executors on nodes without local
    // ready input (the unwatched ones) can go back, and only to let the
    // next allocation round swap them for an unallocated executor that
    // stores one of our uncovered blocks (paper Sec. IV-C: "dynamically
    // add or remove executors to adapt to the up-to-date locality
    // requirements").  When every free executor is watched there is
    // nothing to hand back, whatever the verdict.
    if (!config_.locality_swap || free == cluster_.free_watched_count(id_)) {
      return;
    }
    ++work_.release_verdicts;
    if (!pool_has_useful_executor(work_.release_blocks_walked)) return;
  }
  // Without ready work every free executor goes back, so the manager can
  // re-allocate it data-aware (the paper's proactive release message).
  // The candidates are copied before any release: a release can grant
  // executors back to this app and run its kick.
  std::vector<ExecutorId> to_release;
  cluster_.free_held(id_, to_release);  // ascending == ledger order
  work_.free_ids_copied += to_release.size();
  if (has_ready_work) {
    std::erase_if(to_release, [this](ExecutorId held) {
      return index_.any_local_ready_input(cluster_.node_of(held));
    });
  }
  for (ExecutorId exec : to_release) manager_->release_executor(exec);
}

net::Network::CompletionFn Application::rebuild_flow_callback(
    FlowId /*flow*/, const net::FlowLabel& label, NodeId /*src*/, NodeId dst) {
  return flow_fn(label, dst);
}

template <class Self, class Io>
bool Application::Fields(Self& self, Io& io) {
  io.layer(self.rng_);
  io.i64(self.share_);
  io.i64(self.running_tasks_);
  for (auto* count : {&self.jobs_completed_, &self.jobs_retired_,
                      &self.peak_live_tasks_, &self.spec_launches_,
                      &self.spec_wins_}) {
    io.u64(*count);
  }
  auto& achieved = self.achieved_;
  for (auto* count : {&achieved.local_jobs, &achieved.total_jobs,
                      &achieved.local_tasks, &achieved.total_tasks}) {
    io.i64(*count);
  }
  auto& launches = self.breakdown_;
  auto& work = self.work_;
  for (auto* count :
       {&launches.local, &launches.covered_busy, &launches.uncovered,
        &work.kicks, &work.kick_probes, &work.launches, &work.release_checks,
        &work.release_verdicts, &work.release_blocks_walked,
        &work.free_ids_copied}) {
    io.u64(*count);
  }

  bool retry_armed = self.retry_time_ >= 0.0 && self.retry_event_.valid() &&
                     !self.retry_event_.cancelled();
  io.b(retry_armed);
  if (retry_armed) {
    io.f64(self.retry_time_);
    io.f64(self.retry_armed_time_);
    io.u64(self.retry_seq_);
  }

  // Jobs and tasks in id order (hash map order is not deterministic).
  if constexpr (Io::kLoading) self.active_jobs_.clear();
  snap::SortedMap(
      io, self.jobs_by_id_, "Application: duplicate job",
      [&](JobId id, auto& owned) {
        if constexpr (Io::kLoading) {
          owned = std::make_unique<Job>();
          owned->id = id;
          owned->app = self.id_;
        }
        Job& j = *owned;
        io.str(j.name);
        io.u32(j.input_file);
        io.f64(j.submit_time);
        io.f64(j.input_stage_finish);
        io.f64(j.finish_time);
        io.b(j.finished);
        io.i64(j.input_tasks);
        io.i64(j.local_input_tasks);
        io.i64(j.launched_input_tasks);
        io.f64(j.wait_start);
        snap::Seq(io, j.stages, [&io](Stage& s) {
          io.i64(s.index);
          snap::Seq(io, s.tasks, [&io](TaskId& t) { io.u32(t); });
          io.i64(s.finished);
          io.f64(s.ready_time);
          snap::Seq(io, s.output_nodes, [&io](NodeId& n) { io.u32(n); });
        });
      });
  std::vector<JobId> active;
  if constexpr (!Io::kLoading) {
    for (const Job* j : self.active_jobs_) active.push_back(j->id);
  }
  snap::Seq(io, active, [&io](JobId& id) { io.u32(id); });
  if constexpr (Io::kLoading) {
    for (const JobId id : active) {
      const auto it = self.jobs_by_id_.find(id);
      if (it == self.jobs_by_id_.end() ||
          std::find(self.active_jobs_.begin(), self.active_jobs_.end(),
                    it->second.get()) != self.active_jobs_.end()) {
        throw snap::SnapshotError(
            "Application: active job " + std::to_string(id.value()) +
            " missing from the job table or listed twice");
      }
      self.active_jobs_.push_back(it->second.get());
    }
  }

  snap::SortedMap(
      io, self.tasks_, "Application: duplicate task",
      [&io](TaskId id, auto& t) {
        if constexpr (Io::kLoading) t.id = id;
        io.u32(t.job);
        io.i64(t.stage);
        io.i64(t.index);
        io.u32(t.block);
        io.f64(t.input_bytes);
        io.f64(t.compute_secs);
        snap::EnumU8(io, t.state, TaskState::kFinished,
                     "Application: bad task state ");
        io.f64(t.ready_time);
        io.f64(t.launch_time);
        io.f64(t.finish_time);
        io.i64(t.fetches_outstanding);
        snap::Seq(io, t.fetch_sources, [&io](auto& n) { io.u32(n); });
        io.u32(t.epoch);
        AttemptFields(io, t);
        io.b(t.spec_active);
        AttemptFields(io, t.clone);
      });
  return retry_armed;
}

void Application::SaveTo(snap::SnapshotWriter& w) const { Fields(*this, w); }

void Application::RestoreFrom(snap::SnapshotReader& r) {
  retry_event_.cancel();
  const bool retry_armed = Fields(*this, r);
  if (!retry_armed) retry_time_ = -1.0;
  validate_restored();

  if (retry_armed) {
    retry_event_ = sim_.rearm_at(retry_armed_time_, retry_seq_, [this] {
      retry_time_ = -1.0;
      kick();
    });
  }
  // Pending timers keep their original (time, sequence number), so the
  // order they are re-armed in does not matter.
  for (auto& [tid, t] : tasks_) {
    for (int i = 0; i < 2; ++i) {
      Attempt& a = t.attempt(i);
      if (a.pending_kind == TimerKind::kNone) continue;
      a.pending_event =
          sim_.rearm_at(a.pending_time, a.pending_seq,
                        timer_fn(t.id, t.epoch, a.pending_kind, i));
    }
  }

  // Rebuild the dispatch index in place from the restored ready tasks (the
  // scheduler keeps pointing at it).  All index lists are sorted, so
  // insertion order does not matter; locality derives from the DFS and
  // cache, which must have been restored before the applications.
  index_ = ReadyTaskIndex(dfs_);
  if (cache_ != nullptr) index_.set_cache(cache_);
  // The cluster restore cleared every watched node; the listener watches
  // the rebuilt index's local-ready nodes again as the tasks go in.
  watch_local_ready_nodes();
  for (const auto& [tid, t] : tasks_) {
    if (t.state == TaskState::kReady) index_.task_ready(t);
  }
  // Likewise the straggler index, from the restored running input tasks
  // (sorted inserts, so map order does not matter).
  for (const auto& [tid, t] : tasks_) {
    if (t.state == TaskState::kRunning) {
      track_running_input(job(t.job), t, true);
    }
  }
  exec_idle_since_.clear();
  in_kick_ = false;
}

void Application::validate_restored() const {
  const auto require = [](bool ok, const char* what, std::uint64_t id) {
    if (!ok) {
      throw snap::SnapshotError(std::string("Application: ") + what + " " +
                                std::to_string(id));
    }
  };
  const auto on_cluster = [this](const std::vector<NodeId>& nodes) {
    return std::all_of(nodes.begin(), nodes.end(), [this](NodeId n) {
      return n.value() < cluster_.num_nodes();
    });
  };
  // Every slot of an active job's stages names a task placed there, so the
  // slots name distinct tasks; with as many tasks as slots, every task sits
  // in a slot of an active job.  A stage's tasks are blocked exactly while
  // an earlier stage is incomplete (mark_stage_ready readies only those).
  std::size_t slots = 0;
  for (const Job* j : active_jobs_) {
    require(!j->stages.empty(), "no input stage in job", j->id.value());
    bool readied = true;
    for (std::size_t s = 0; s < j->stages.size(); ++s) {
      const Stage& stage = j->stages[s];
      int finished = 0;
      for (std::size_t i = 0; i < stage.tasks.size(); ++i) {
        const auto it = tasks_.find(stage.tasks[i]);
        require(it != tasks_.end() && it->second.job == j->id &&
                    it->second.stage == static_cast<int>(s) &&
                    it->second.index == static_cast<int>(i) &&
                    (it->second.state == TaskState::kBlocked) != readied,
                "stage slot disagrees with the task table for task",
                stage.tasks[i].value());
        finished += it->second.state == TaskState::kFinished ? 1 : 0;
      }
      require(stage.index == static_cast<int>(s) &&
                  stage.finished == finished && on_cluster(stage.output_nodes),
              "malformed stage in job", j->id.value());
      readied = readied && stage.complete();
      slots += stage.tasks.size();
    }
  }
  require(tasks_.size() == slots, "task table holds tasks no active job lists:",
          tasks_.size() - slots);
  // A running attempt names a known executor; a stopped one holds no timer.
  const auto attempt_ok = [this](const Attempt& a, bool running) {
    return running ? a.executor.value() < cluster_.num_executors()
                   : a.pending_kind == TimerKind::kNone;
  };
  std::size_t running_tasks = 0;
  for (const auto& [tid, t] : tasks_) {
    require(on_cluster(t.fetch_sources) &&
                (!t.is_input() || dfs_.namenode().has_block(t.block)),
            "unknown node or block read by task", tid.value());
    // Attempt 0 runs while the task does, attempt 1 while its clone does.
    const bool running = t.state == TaskState::kRunning;
    running_tasks += running ? 1 : 0;
    require(!t.spec_active || (running && t.is_input()),
            "clone of a task that is not a running input task", tid.value());
    require(attempt_ok(t, running) && attempt_ok(t.clone, t.spec_active),
            "unknown executor or a timer of a stopped attempt in task",
            tid.value());
  }
  // The demand every manager budgets from counts the running tasks.
  require(running_tasks_ >= 0 &&
              static_cast<std::size_t>(running_tasks_) == running_tasks,
          "running-task count disagrees with the task table, which runs",
          running_tasks);
}

int Application::executors_held() const { return cluster_.owned_by(id_); }

std::vector<ExecutorId> Application::held_executors() const {
  std::vector<ExecutorId> held;
  cluster_.held_executors(id_, held);
  return held;
}

}  // namespace custody::app
