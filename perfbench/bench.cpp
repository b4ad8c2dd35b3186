#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

// --- SpanLog ----------------------------------------------------------------

namespace {
thread_local std::vector<int> tls_open_spans;
}  // namespace

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(log) {
  if (log_.enabled_) index_ = log_.open(std::move(name));
}

SpanLog::Scope::~Scope() {
  if (index_ >= 0) log_.close(index_);
}

int SpanLog::open(std::string name) {
  const double start =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  const int parent = tls_open_spans.empty() ? -1 : tls_open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, start, parent});
  const int index = static_cast<int>(spans_.size() - 1);
  tls_open_spans.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  const double end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  tls_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = end;
}

void SpanLog::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  std::lock_guard<std::mutex> lock(mu_);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d}\n",
                  i, s.name.c_str(), s.start_s, s.end_s, s.parent);
    out << line;
  }
  if (!out.good()) throw std::runtime_error("cannot write spans to " + path);
}

// --- LogHistogram / EventWallProbe -------------------------------------------

void LogHistogram::add(double seconds) {
  const double ns = seconds * 1e9;
  int bucket = 0;
  if (ns > 1.0) bucket = static_cast<int>(std::log2(ns) * 16.0);
  buckets_[static_cast<std::size_t>(std::clamp(bucket, 0, kBuckets - 1))]++;
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return std::exp2((b + 0.5) / 16.0) * 1e-9;
    }
  }
  return std::exp2(kBuckets / 16.0) * 1e-9;
}

void EventWallProbe::attach(custody::sim::Simulator& sim) {
  sim.add_post_event_hook([this] {
    const Clock::time_point now = Clock::now();
    if (primed_) {
      hist_.add(std::chrono::duration<double>(now - last_).count());
    }
    last_ = now;
    primed_ = true;
  });
}

// --- Outcome / Ledger ---------------------------------------------------------

namespace {

void Mix(std::uint64_t& hash, const void* data, std::size_t n) {
  // FNV-1a continued over the previous hash.
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
}

template <typename T>
void MixValue(std::uint64_t& hash, T value) {
  Mix(hash, &value, sizeof value);
}

}  // namespace

void Outcome::add(const custody::workload::ExperimentResult& r) {
  events += r.events_processed;
  jobs += r.jobs_completed;
  jct_mean = (jct_mean * runs + r.jct.mean) / (runs + 1);
  local_job_pct = (local_job_pct * runs + r.local_job_percent) / (runs + 1);
  jct_p99 = std::max(jct_p99, r.jct.p99);
  bytes += r.net_bytes_delivered;
  ++runs;
  MixValue(hash, r.events_processed);
  MixValue(hash, r.jobs_completed);
  MixValue(hash, r.jct.mean);
  MixValue(hash, r.jct.p99);
  MixValue(hash, r.local_job_percent);
  MixValue(hash, r.net_bytes_delivered);
}

std::string Outcome::describe() const {
  char text[320];
  std::snprintf(text, sizeof text,
                "digest=%016llx runs=%d events=%llu jobs=%llu "
                "jct_mean_s=%.6f jct_p99_s=%.6f local_job_pct=%.4f "
                "bytes=%.6e",
                static_cast<unsigned long long>(hash), runs,
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(jobs), jct_mean, jct_p99,
                local_job_pct, bytes);
  return text;
}

void Ledger::add(const custody::workload::ExperimentResult& r) {
  const auto& m = r.manager_stats;
  const auto& n = r.net_stats;
  events += r.events_processed;
  jobs += r.jobs_completed;
  alloc_rounds += m.allocation_rounds;
  rounds_skipped += m.rounds_skipped;
  round_count += r.round_wall.count;
  rounds_productive += static_cast<std::uint64_t>(std::llround(
      r.round_yield_fraction * static_cast<double>(r.round_wall.count)));
  executors_granted += m.executors_granted;
  executors_scanned += m.executors_scanned;
  apps_considered += m.apps_considered;
  offers_made += m.offers_made;
  offers_rejected += m.offers_rejected;
  net_requested += n.recomputes_requested;
  net_solves += n.recomputes_run;
  net_batched += n.recomputes_batched;
  flows_scanned += n.flows_scanned;
  links_scanned += n.links_scanned;
  components_dirty += n.components_dirty;
  completion_rescans += n.completion_rescans;
  launches_local += r.launches_local;
  launches_covered_busy += r.launches_covered_busy;
  launches_uncovered += r.launches_uncovered;
  spec_launches += r.speculative_launches;
  spec_wins += r.speculative_wins;
  peak_live_tasks = std::max(peak_live_tasks, r.peak_live_tasks);
  cache_hits += r.cache_hits;
  cache_insertions += r.cache_insertions;
  nodes_failed += static_cast<std::uint64_t>(r.nodes_failed);
  bytes += r.net_bytes_delivered;
  net_wall_s += n.wall_seconds;
  alloc_wall_s += m.allocation_wall_seconds;
  round_wall_p99_s = std::max(round_wall_p99_s, r.round_wall.p99);
}

std::vector<std::uint64_t> Ledger::exact() const {
  std::uint64_t bytes_bits = 0;
  std::memcpy(&bytes_bits, &bytes, sizeof bytes_bits);
  return {events,          jobs,           alloc_rounds,
          rounds_skipped,  rounds_productive, round_count,
          executors_granted, executors_scanned, apps_considered,
          offers_made,     offers_rejected, net_requested,
          net_solves,      net_batched,    flows_scanned,
          links_scanned,   components_dirty, completion_rescans,
          launches_local,  launches_covered_busy, launches_uncovered,
          spec_launches,   spec_wins,      peak_live_tasks,
          cache_hits,      cache_insertions, nodes_failed,
          bytes_bits};
}

// --- Report -------------------------------------------------------------------

void Report::op(bool ok, const std::string& check) {
  ++attempted;
  if (!ok) {
    ++failed;
    ++failures[check];
  }
}

void Report::e2e(std::string name, double value, std::string unit,
                 std::string note) {
  end_to_end.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void Report::layer(std::string name, double value, std::string unit,
                   std::string note) {
  per_layer.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in print order (BENCHMARK.json lists the same).
constexpr LayerSpec kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.events_per_job", "events/job"},
    {"sim.events_per_s", "1/s"},
    {"sim.event_wall_p50_us", "us"},
    {"sim.event_wall_p99_us", "us"},
    {"sim.queue_peak", "count"},
    {"app.unattributed_wall_share", "ratio"},
    {"app.launch_local_ratio", "ratio"},
    {"app.launch_covered_busy_ratio", "ratio"},
    {"app.launch_uncovered_ratio", "ratio"},
    {"app.spec_launches", "count"},
    {"app.spec_win_ratio", "ratio"},
    {"app.peak_live_tasks", "count"},
    {"cluster.alloc_rounds", "count"},
    {"cluster.rounds_skipped_ratio", "ratio"},
    {"cluster.round_yield", "ratio"},
    {"cluster.alloc_wall_share", "ratio"},
    {"cluster.round_wall_p99_us", "us"},
    {"cluster.offer_reject_ratio", "ratio"},
    {"core.scanned_per_grant", "scans/grant"},
    {"core.apps_considered_per_round", "apps/round"},
    {"net.wall_share", "ratio"},
    {"net.solves", "count"},
    {"net.batched_ratio", "ratio"},
    {"net.flows_scanned_per_solve", "flows/solve"},
    {"net.links_scanned_per_solve", "links/solve"},
    {"net.dirty_components_per_solve", "comps/solve"},
    {"net.completion_rescans", "count"},
    {"net.bytes_per_job", "B/job"},
    {"dfs.cache_hit_ratio", "ratio"},
    {"dfs.nodes_failed", "count"},
    {"dfs.context_build_s", "s"},
    {"metrics.collect_s", "s"},
    {"workload.snapshot_build_s", "s"},
    {"workload.liverun_ctor_s", "s"},
    {"workload.sweep_efficiency", "ratio"},
    {"workload.sweep_slowest_cell_s", "s"},
    {"snap.save_ms", "ms"},
    {"snap.restore_ms", "ms"},
    {"snap.bytes", "B"},
    {"svc.fork_direct_ms", "ms"},
    {"svc.http_overhead_ms", "ms"},
    {"svc.json_encode_ms", "ms"},
    {"svc.busy_409_ratio", "ratio"},
    {"svc.req_per_s", "1/s"},
    {"svc.fork_p50_ms", "ms"},
    {"svc.fork_p99_ms", "ms"},
    {"svc.poll_p50_ms", "ms"},
    {"svc.poll_p99_ms", "ms"},
    {"bench.untraced_jobs_per_s", "1/s"},
    {"bench.traced_jobs_per_s", "1/s"},
    {"bench.trace_overhead_ratio", "ratio"},
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double Ratio(std::uint64_t num, std::uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

}  // namespace

void AddLedgerMetrics(Report& report, const Ledger& l, double run_wall_s) {
  const std::string exact = "exact";
  const std::uint64_t launches =
      l.launches_local + l.launches_covered_busy + l.launches_uncovered;
  const std::uint64_t rounds_run = l.alloc_rounds - l.rounds_skipped;
  report.layer("sim.events", static_cast<double>(l.events), "count", exact);
  report.layer("sim.events_per_job", Ratio(l.events, l.jobs), "events/job",
               exact);
  report.layer("app.launch_local_ratio", Ratio(l.launches_local, launches),
               "ratio", exact);
  report.layer("app.launch_covered_busy_ratio",
               Ratio(l.launches_covered_busy, launches), "ratio", exact);
  report.layer("app.launch_uncovered_ratio",
               Ratio(l.launches_uncovered, launches), "ratio", exact);
  report.layer("app.spec_launches", static_cast<double>(l.spec_launches),
               "count", exact);
  report.layer("app.spec_win_ratio", Ratio(l.spec_wins, l.spec_launches),
               "ratio", exact);
  report.layer("app.peak_live_tasks", static_cast<double>(l.peak_live_tasks),
               "count", exact);
  report.layer("cluster.alloc_rounds", static_cast<double>(l.alloc_rounds),
               "count", exact);
  report.layer("cluster.rounds_skipped_ratio",
               Ratio(l.rounds_skipped, l.alloc_rounds), "ratio", exact);
  report.layer("cluster.round_yield",
               Ratio(l.rounds_productive, l.round_count), "ratio", exact);
  report.layer("cluster.round_wall_p99_us", l.round_wall_p99_s * 1e6, "us",
               "max over runs");
  report.layer("cluster.offer_reject_ratio",
               Ratio(l.offers_rejected, l.offers_made), "ratio", exact);
  report.layer("core.scanned_per_grant",
               Ratio(l.executors_scanned, l.executors_granted), "scans/grant",
               exact);
  report.layer("core.apps_considered_per_round",
               Ratio(l.apps_considered, rounds_run), "apps/round", exact);
  report.layer("net.solves", static_cast<double>(l.net_solves), "count",
               exact);
  report.layer("net.batched_ratio", Ratio(l.net_batched, l.net_requested),
               "ratio", exact);
  report.layer("net.flows_scanned_per_solve",
               Ratio(l.flows_scanned, l.net_solves), "flows/solve", exact);
  report.layer("net.links_scanned_per_solve",
               Ratio(l.links_scanned, l.net_solves), "links/solve", exact);
  report.layer("net.dirty_components_per_solve",
               Ratio(l.components_dirty, l.net_solves), "comps/solve", exact);
  report.layer("net.completion_rescans",
               static_cast<double>(l.completion_rescans), "count", exact);
  report.layer("net.bytes_per_job", Ratio(l.bytes, static_cast<double>(l.jobs)),
               "B/job", exact);
  report.layer("dfs.cache_hit_ratio",
               Ratio(l.cache_hits, l.cache_hits + l.cache_insertions), "ratio",
               "exact; hits / (hits + fills)");
  report.layer("dfs.nodes_failed", static_cast<double>(l.nodes_failed),
               "count", exact);
  if (run_wall_s > 0.0) {
    const double net = l.net_wall_s / run_wall_s;
    const double alloc = l.alloc_wall_s / run_wall_s;
    report.layer("sim.events_per_s", static_cast<double>(l.events) / run_wall_s,
                 "1/s");
    report.layer("net.wall_share", net, "ratio");
    report.layer("cluster.alloc_wall_share", alloc, "ratio");
    report.layer("app.unattributed_wall_share", 1.0 - net - alloc, "ratio",
                 "1 - net - alloc");
  }
}

void FillMissingLayers(Report& report) {
  std::vector<Metric> ordered;
  for (const LayerSpec& spec : kLayerMetrics) {
    const auto it = std::find_if(
        report.per_layer.begin(), report.per_layer.end(),
        [&spec](const Metric& m) { return m.name == spec.name; });
    if (it != report.per_layer.end()) {
      ordered.push_back(*it);
    } else {
      ordered.push_back({spec.name, 0.0, spec.unit, "n/a on this workload"});
    }
  }
  for (const Metric& m : report.per_layer) {
    const bool known = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&m](const LayerSpec& spec) {
          return m.name == spec.name && m.unit == spec.unit;
        });
    if (!known) {
      throw std::logic_error("undeclared per-layer metric " + m.name + " [" +
                             m.unit + "]");
    }
  }
  report.per_layer = std::move(ordered);
}

void CheckExactRepeat(Report& report, const Ledger& a, const Ledger& b) {
  const bool same = a.exact() == b.exact();
  report.op(same, "exact-counters-repeat");
  report.lines.push_back(std::string("exact counters repeat bit for bit: ") +
                         (same ? "yes" : "NO"));
}

// --- Runs ---------------------------------------------------------------------

using custody::workload::LiveRun;
using custody::workload::ManagerKind;
using custody::workload::SimulationContext;
using custody::workload::SubstrateSnapshot;

RunRecord RunLive(const SubstrateSnapshot& snapshot, ManagerKind manager,
                  double window, SpanLog& spans, EventWallProbe* probe) {
  RunRecord record;
  Clock::time_point start = Clock::now();
  std::unique_ptr<LiveRun> run;
  {
    SpanLog::Scope span(spans, "workload.LiveRun::LiveRun");
    run = std::make_unique<LiveRun>(snapshot, manager);
  }
  record.ctor_s = SecondsSince(start);
  if (probe != nullptr) probe->attach(run->simulator());
  start = Clock::now();
  {
    SpanLog::Scope span(spans, "workload.LiveRun::run_until");
    while (!run->drained()) {
      if (probe != nullptr) probe->window_start();
      run->run_until(run->simulator().now() + window);
      record.queue_peak = std::max<std::uint64_t>(
          record.queue_peak, run->simulator().queue_size());
    }
  }
  record.run_s = SecondsSince(start);
  start = Clock::now();
  {
    SpanLog::Scope span(spans, "workload.LiveRun::collect");
    record.result = run->collect();
  }
  record.collect_s = SecondsSince(start);
  return record;
}

void MeasureSnapshotCodec(const SubstrateSnapshot& snapshot,
                          ManagerKind manager, double at, Report& report,
                          SpanLog& spans) {
  LiveRun run(snapshot, manager);
  run.run_until(at);
  const custody::workload::RunProgress before = run.progress();
  Clock::time_point start = Clock::now();
  std::vector<std::uint8_t> bytes;
  {
    SpanLog::Scope span(spans, "workload.LiveRun::save");
    bytes = run.save();
  }
  const double save_s = SecondsSince(start);
  LiveRun fresh(snapshot, manager);
  start = Clock::now();
  {
    SpanLog::Scope span(spans, "workload.LiveRun::restore");
    fresh.restore(bytes);
  }
  const double restore_s = SecondsSince(start);
  const custody::workload::RunProgress after = fresh.progress();
  report.op(after.events_processed == before.events_processed &&
                after.sim_time == before.sim_time &&
                after.jobs_completed == before.jobs_completed,
            "snapshot-restore-boundary");
  report.layer("snap.save_ms", save_s * 1e3, "ms");
  report.layer("snap.restore_ms", restore_s * 1e3, "ms");
  report.layer("snap.bytes", static_cast<double>(bytes.size()), "B", "exact");
}

void MeasureContextBuild(const SubstrateSnapshot& snapshot, int times,
                         Report& report, SpanLog& spans) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const Clock::time_point start = Clock::now();
    SpanLog::Scope span(spans, "workload.SimulationContext");
    const SimulationContext context(snapshot);
    samples.push_back(SecondsSince(start));
  }
  report.layer("dfs.context_build_s", Median(samples), "s",
               "median of " + std::to_string(times));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 of (seed, index): distinct, well-spread seeds per input.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  // 53 bits: the control plane's JSON carries the seed as a double.
  return (z ^ (z >> 31)) >> 11;
}

double JobsPerSecond(const std::vector<std::uint64_t>& jobs,
                     const std::vector<std::vector<double>>& walls) {
  double total_jobs = 0.0;
  double total_wall = 0.0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    std::vector<double> samples;
    for (const std::vector<double>& pass : walls) samples.push_back(pass.at(k));
    total_jobs += static_cast<double>(jobs[k]);
    total_wall += Median(samples);
  }
  return total_wall > 0.0 ? total_jobs / total_wall : 0.0;
}

int SweepThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw == 0 ? 1 : hw, 1, 4));
}

}  // namespace perfbench
