#include "svc/json_api.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>

#include "app/scheduler.h"

namespace custody::svc {

using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::WorkloadKind;
using cluster::ManagerKind;

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("number: JSON cannot carry non-finite values");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

ManagerKind ManagerKindFromName(const std::string& name) {
  if (name == "custody") return ManagerKind::kCustody;
  if (name == "standalone") return ManagerKind::kStandalone;
  if (name == "offer") return ManagerKind::kOffer;
  if (name == "pool") return ManagerKind::kPool;
  throw std::invalid_argument(
      "manager must be one of custody|standalone|offer|pool (got \"" + name +
      "\")");
}

WorkloadKind WorkloadKindFromName(const std::string& name) {
  if (name == "PageRank") return WorkloadKind::kPageRank;
  if (name == "WordCount") return WorkloadKind::kWordCount;
  if (name == "Sort") return WorkloadKind::kSort;
  throw std::invalid_argument(
      "kinds must name PageRank|WordCount|Sort workloads (got \"" + name +
      "\")");
}

namespace {

const char* SchedulerName(app::SchedulerKind kind) {
  switch (kind) {
    case app::SchedulerKind::kDelay: return "delay";
    case app::SchedulerKind::kLocalityPreferred: return "locality_preferred";
    case app::SchedulerKind::kFifo: return "fifo";
  }
  return "delay";
}

app::SchedulerKind SchedulerKindFromName(const std::string& name) {
  if (name == "delay") return app::SchedulerKind::kDelay;
  if (name == "locality_preferred") {
    return app::SchedulerKind::kLocalityPreferred;
  }
  if (name == "fifo") return app::SchedulerKind::kFifo;
  throw std::invalid_argument(
      "scheduler.kind must be one of delay|locality_preferred|fifo (got \"" +
      name + "\")");
}

/// Walks one JSON object strictly: every visited key is ticked off, and
/// `finish` throws on any member that no field claimed — the unknown-key
/// rejection that keeps typos from silently running default configs.
class ObjectScope {
 public:
  ObjectScope(const JsonValue& value, std::string path)
      : path_(std::move(path)) {
    if (!value.is_object()) {
      throw std::invalid_argument(path_ + " must be a JSON object (got " +
                                  value.kind_name() + ")");
    }
    object_ = &value;
  }

  [[nodiscard]] const JsonValue* claim(const std::string& key) {
    claimed_.insert(key);
    return object_->find(key);
  }

  [[nodiscard]] std::string member_path(const std::string& key) const {
    return path_ == "config" ? key : path_ + "." + key;
  }

  void finish() const {
    for (const auto& [key, value] : object_->members()) {
      (void)value;
      if (claimed_.count(key) == 0) {
        throw std::invalid_argument(member_path(key) +
                                    " is not a recognized config field");
      }
    }
  }

  // Typed field readers; absent keys leave the default in place.
  void number(const std::string& key, double& out) {
    if (const JsonValue* v = claim(key)) {
      if (!v->is_number()) {
        throw std::invalid_argument(member_path(key) +
                                    " must be a number (got " +
                                    v->kind_name() + ")");
      }
      out = v->as_number();
    }
  }

  void integer(const std::string& key, std::function<void(long long)> set) {
    if (const JsonValue* v = claim(key)) {
      if (!v->is_number() || v->as_number() != std::floor(v->as_number()) ||
          std::fabs(v->as_number()) > 9.007199254740992e15) {
        throw std::invalid_argument(member_path(key) +
                                    " must be an integer");
      }
      set(static_cast<long long>(v->as_number()));
    }
  }

  void boolean(const std::string& key, bool& out) {
    if (const JsonValue* v = claim(key)) {
      if (!v->is_bool()) {
        throw std::invalid_argument(member_path(key) +
                                    " must be a boolean (got " +
                                    v->kind_name() + ")");
      }
      out = v->as_bool();
    }
  }

  void string(const std::string& key, std::function<void(const std::string&)>
                                          set) {
    if (const JsonValue* v = claim(key)) {
      if (!v->is_string()) {
        throw std::invalid_argument(member_path(key) +
                                    " must be a string (got " +
                                    v->kind_name() + ")");
      }
      set(v->as_string());
    }
  }

 private:
  const JsonValue* object_ = nullptr;
  std::string path_;
  std::set<std::string> claimed_;
};

}  // namespace

ExperimentConfig ConfigFromJson(const JsonValue& document) {
  ExperimentConfig config;
  ObjectScope root(document, "config");

  // Cluster.
  root.integer("num_nodes", [&](long long v) {
    if (v < 0) throw std::invalid_argument("num_nodes must be >= 0");
    config.num_nodes = static_cast<std::size_t>(v);
  });
  root.integer("executors_per_node", [&](long long v) {
    config.executors_per_node = static_cast<int>(v);
  });
  root.number("disk_mbps", config.disk_mbps);
  root.number("uplink_gbps", config.uplink_gbps);
  root.number("downlink_gbps", config.downlink_gbps);
  root.number("core_gbps", config.core_gbps);

  // DFS.
  root.number("block_mb", config.block_mb);
  root.integer("replication",
               [&](long long v) { config.replication = static_cast<int>(v); });
  root.number("cache_mb_per_node", config.cache_mb_per_node);
  if (const JsonValue* v = root.claim("dataset")) {
    ObjectScope dataset(*v, "dataset");
    dataset.boolean("popularity_replication",
                    config.dataset.popularity_replication);
    dataset.integer("popularity_extra_replicas", [&](long long n) {
      config.dataset.popularity_extra_replicas = static_cast<int>(n);
    });
    dataset.number("hot_fraction", config.dataset.hot_fraction);
    dataset.finish();
  }

  // Scheduling.
  root.string("manager", [&](const std::string& name) {
    config.manager = ManagerKindFromName(name);
  });
  if (const JsonValue* v = root.claim("allocator")) {
    ObjectScope allocator(*v, "allocator");
    allocator.boolean("locality_fair", config.allocator.locality_fair);
    allocator.boolean("priority_jobs", config.allocator.priority_jobs);
    allocator.finish();
  }
  if (const JsonValue* v = root.claim("scheduler")) {
    ObjectScope scheduler(*v, "scheduler");
    scheduler.string("kind", [&](const std::string& name) {
      config.scheduler.kind = SchedulerKindFromName(name);
    });
    scheduler.number("locality_wait", config.scheduler.locality_wait);
    scheduler.finish();
  }
  root.integer("shuffle_fan_in", [&](long long v) {
    config.shuffle_fan_in = static_cast<int>(v);
  });
  root.boolean("speculation", config.speculation);
  root.number("speculation_multiplier", config.speculation_multiplier);
  root.number("slow_node_fraction", config.slow_node_fraction);
  root.number("slow_node_factor", config.slow_node_factor);
  root.integer("node_failures", [&](long long v) {
    config.node_failures = static_cast<int>(v);
  });
  root.number("failure_start", config.failure_start);
  root.number("failure_interval", config.failure_interval);

  // Workload.
  if (const JsonValue* v = root.claim("kinds")) {
    if (!v->is_array()) {
      throw std::invalid_argument("kinds must be an array of workload names");
    }
    config.kinds.clear();
    for (const JsonValue& item : v->items()) {
      if (!item.is_string()) {
        throw std::invalid_argument(
            "kinds must be an array of workload names");
      }
      config.kinds.push_back(WorkloadKindFromName(item.as_string()));
    }
  }
  if (const JsonValue* v = root.claim("trace")) {
    ObjectScope trace(*v, "trace");
    trace.integer("num_apps", [&](long long n) {
      config.trace.num_apps = static_cast<int>(n);
    });
    trace.integer("jobs_per_app", [&](long long n) {
      config.trace.jobs_per_app = static_cast<int>(n);
    });
    trace.number("mean_interarrival", config.trace.mean_interarrival);
    trace.number("zipf_skew", config.trace.zipf_skew);
    trace.integer("files_per_kind", [&](long long n) {
      config.trace.files_per_kind = static_cast<int>(n);
    });
    trace.finish();
  }
  if (const JsonValue* v = root.claim("params")) {
    ObjectScope params(*v, "params");
    params.integer("pagerank_iterations", [&](long long n) {
      config.params.pagerank_iterations = static_cast<int>(n);
    });
    params.number("pagerank_compute_per_byte",
                  config.params.pagerank_compute_per_byte);
    params.number("pagerank_shuffle_ratio",
                  config.params.pagerank_shuffle_ratio);
    params.number("pagerank_iter_compute_per_byte",
                  config.params.pagerank_iter_compute_per_byte);
    params.number("wordcount_compute_per_byte",
                  config.params.wordcount_compute_per_byte);
    params.number("wordcount_shuffle_ratio",
                  config.params.wordcount_shuffle_ratio);
    params.number("wordcount_reduce_secs",
                  config.params.wordcount_reduce_secs);
    params.number("sort_compute_per_byte",
                  config.params.sort_compute_per_byte);
    params.number("sort_shuffle_ratio", config.params.sort_shuffle_ratio);
    params.number("sort_reduce_compute_per_byte",
                  config.params.sort_reduce_compute_per_byte);
    params.finish();
  }
  if (const JsonValue* v = root.claim("steady")) {
    ObjectScope steady(*v, "steady");
    steady.boolean("enabled", config.steady.enabled);
    steady.boolean("retire_jobs", config.steady.retire_jobs);
    steady.boolean("streaming_metrics", config.steady.streaming_metrics);
    steady.number("warmup", config.steady.warmup);
    steady.number("diurnal_amplitude", config.steady.diurnal_amplitude);
    steady.number("diurnal_period", config.steady.diurnal_period);
    steady.finish();
  }
  if (const JsonValue* v = root.claim("tracing")) {
    ObjectScope tracing(*v, "tracing");
    tracing.boolean("enabled", config.tracing.enabled);
    tracing.integer("capacity", [&](long long n) {
      if (n <= 0) throw std::invalid_argument("tracing.capacity must be > 0");
      config.tracing.capacity = static_cast<std::size_t>(n);
    });
    tracing.finish();
  }
  if (root.claim("checkpoint") != nullptr) {
    throw std::invalid_argument(
        "checkpoint is not settable over HTTP (server-side file I/O)");
  }
  root.integer("seed", [&](long long v) {
    if (v < 0) throw std::invalid_argument("seed must be >= 0");
    config.seed = static_cast<std::uint64_t>(v);
  });

  root.finish();
  return config;
}

ExperimentConfig ConfigFromJsonText(const std::string& text) {
  return ConfigFromJson(JsonReader::Parse(text));
}

std::string ConfigToJson(const ExperimentConfig& config) {
  std::string out = "{";
  const auto num = [&out](const char* key, double v, bool comma = true) {
    out += std::string("\"") + key + "\":" + JsonNumber(v);
    if (comma) out += ",";
  };
  const auto boolean = [&out](const char* key, bool v) {
    out += std::string("\"") + key + "\":" + (v ? "true" : "false") + ",";
  };
  num("num_nodes", static_cast<double>(config.num_nodes));
  num("executors_per_node", config.executors_per_node);
  num("disk_mbps", config.disk_mbps);
  num("uplink_gbps", config.uplink_gbps);
  num("downlink_gbps", config.downlink_gbps);
  num("core_gbps", config.core_gbps);
  num("block_mb", config.block_mb);
  num("replication", config.replication);
  num("cache_mb_per_node", config.cache_mb_per_node);
  out += "\"dataset\":{";
  boolean("popularity_replication", config.dataset.popularity_replication);
  num("popularity_extra_replicas", config.dataset.popularity_extra_replicas);
  num("hot_fraction", config.dataset.hot_fraction, /*comma=*/false);
  out += "},";
  out += "\"manager\":" + JsonQuote(ManagerName(config.manager)) + ",";
  out += "\"allocator\":{";
  boolean("locality_fair", config.allocator.locality_fair);
  out += "\"priority_jobs\":";
  out += config.allocator.priority_jobs ? "true" : "false";
  out += "},";
  out += "\"scheduler\":{";
  out += "\"kind\":" + JsonQuote(SchedulerName(config.scheduler.kind)) + ",";
  num("locality_wait", config.scheduler.locality_wait, /*comma=*/false);
  out += "},";
  num("shuffle_fan_in", config.shuffle_fan_in);
  boolean("speculation", config.speculation);
  num("speculation_multiplier", config.speculation_multiplier);
  num("slow_node_fraction", config.slow_node_fraction);
  num("slow_node_factor", config.slow_node_factor);
  num("node_failures", config.node_failures);
  num("failure_start", config.failure_start);
  num("failure_interval", config.failure_interval);
  out += "\"kinds\":[";
  for (std::size_t i = 0; i < config.kinds.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonQuote(WorkloadName(config.kinds[i]));
  }
  out += "],";
  out += "\"trace\":{";
  num("num_apps", config.trace.num_apps);
  num("jobs_per_app", config.trace.jobs_per_app);
  num("mean_interarrival", config.trace.mean_interarrival);
  num("zipf_skew", config.trace.zipf_skew);
  num("files_per_kind", config.trace.files_per_kind, /*comma=*/false);
  out += "},";
  out += "\"params\":{";
  num("pagerank_iterations", config.params.pagerank_iterations);
  num("pagerank_compute_per_byte", config.params.pagerank_compute_per_byte);
  num("pagerank_shuffle_ratio", config.params.pagerank_shuffle_ratio);
  num("pagerank_iter_compute_per_byte",
      config.params.pagerank_iter_compute_per_byte);
  num("wordcount_compute_per_byte", config.params.wordcount_compute_per_byte);
  num("wordcount_shuffle_ratio", config.params.wordcount_shuffle_ratio);
  num("wordcount_reduce_secs", config.params.wordcount_reduce_secs);
  num("sort_compute_per_byte", config.params.sort_compute_per_byte);
  num("sort_shuffle_ratio", config.params.sort_shuffle_ratio);
  num("sort_reduce_compute_per_byte",
      config.params.sort_reduce_compute_per_byte, /*comma=*/false);
  out += "},";
  out += "\"steady\":{";
  boolean("enabled", config.steady.enabled);
  boolean("retire_jobs", config.steady.retire_jobs);
  boolean("streaming_metrics", config.steady.streaming_metrics);
  num("warmup", config.steady.warmup);
  num("diurnal_amplitude", config.steady.diurnal_amplitude);
  num("diurnal_period", config.steady.diurnal_period, /*comma=*/false);
  out += "},";
  out += "\"tracing\":{";
  boolean("enabled", config.tracing.enabled);
  num("capacity", static_cast<double>(config.tracing.capacity),
      /*comma=*/false);
  out += "},";
  num("seed", static_cast<double>(config.seed), /*comma=*/false);
  out += "}";
  return out;
}

std::string SummaryToJson(const Summary& summary) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(summary.count) + ",";
  out += "\"mean\":" + JsonNumber(summary.mean) + ",";
  out += "\"stddev\":" + JsonNumber(summary.stddev) + ",";
  out += "\"min\":" + JsonNumber(summary.min) + ",";
  out += "\"p25\":" + JsonNumber(summary.p25) + ",";
  out += "\"median\":" + JsonNumber(summary.median) + ",";
  out += "\"p75\":" + JsonNumber(summary.p75) + ",";
  out += "\"p95\":" + JsonNumber(summary.p95) + ",";
  out += "\"p99\":" + JsonNumber(summary.p99) + ",";
  out += "\"max\":" + JsonNumber(summary.max) + "}";
  return out;
}

std::string ResultToJson(const ExperimentResult& result) {
  std::string out = "{";
  out += "\"manager_name\":" + JsonQuote(result.manager_name) + ",";
  out += "\"job_locality\":" + SummaryToJson(result.job_locality) + ",";
  out += "\"overall_task_locality_percent\":" +
         JsonNumber(result.overall_task_locality_percent) + ",";
  out += "\"local_job_percent\":" + JsonNumber(result.local_job_percent) +
         ",";
  out += "\"jct\":" + SummaryToJson(result.jct) + ",";
  out += "\"input_stage\":" + SummaryToJson(result.input_stage) + ",";
  out += "\"sched_delay\":" + SummaryToJson(result.sched_delay) + ",";
  out += "\"per_app_local_job_fraction\":[";
  for (std::size_t i = 0; i < result.per_app_local_job_fraction.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(result.per_app_local_job_fraction[i]);
  }
  out += "],";
  out += "\"manager_stats\":{";
  out += "\"allocation_rounds\":" +
         std::to_string(result.manager_stats.allocation_rounds) + ",";
  out += "\"executors_granted\":" +
         std::to_string(result.manager_stats.executors_granted) + ",";
  out += "\"executors_released\":" +
         std::to_string(result.manager_stats.executors_released) + ",";
  out += "\"offers_made\":" + std::to_string(result.manager_stats.offers_made) +
         ",";
  out += "\"offers_rejected\":" +
         std::to_string(result.manager_stats.offers_rejected) + ",";
  out += "\"executors_scanned\":" +
         std::to_string(result.manager_stats.executors_scanned) + ",";
  out += "\"apps_considered\":" +
         std::to_string(result.manager_stats.apps_considered) + "},";
  out += "\"round_count\":" + std::to_string(result.round_wall.count) + ",";
  out += "\"round_yield_fraction\":" + JsonNumber(result.round_yield_fraction) +
         ",";
  out += "\"net_stats\":{";
  out += "\"recomputes_requested\":" +
         std::to_string(result.net_stats.recomputes_requested) + ",";
  out += "\"recomputes_run\":" +
         std::to_string(result.net_stats.recomputes_run) + ",";
  out += "\"recomputes_batched\":" +
         std::to_string(result.net_stats.recomputes_batched) + ",";
  out += "\"flows_scanned\":" +
         std::to_string(result.net_stats.flows_scanned) + ",";
  out += "\"links_scanned\":" +
         std::to_string(result.net_stats.links_scanned) + ",";
  out += "\"rounds\":" + std::to_string(result.net_stats.rounds) + ",";
  out += "\"components_total\":" +
         std::to_string(result.net_stats.components_total) + ",";
  out += "\"components_dirty\":" +
         std::to_string(result.net_stats.components_dirty) + ",";
  out += "\"rates_changed\":" +
         std::to_string(result.net_stats.rates_changed) + ",";
  out += "\"completion_rescans\":" +
         std::to_string(result.net_stats.completion_rescans) + "},";
  const app::WorkCounters& work = result.app_work;
  out += "\"app_work\":{";
  out += "\"kicks\":" + std::to_string(work.kicks) + ",";
  out += "\"kick_probes\":" + std::to_string(work.kick_probes) + ",";
  out += "\"launches\":" + std::to_string(work.launches) + ",";
  out += "\"release_checks\":" + std::to_string(work.release_checks) + ",";
  out += "\"release_verdicts\":" + std::to_string(work.release_verdicts) +
         ",";
  out += "\"release_blocks_walked\":" +
         std::to_string(work.release_blocks_walked) + ",";
  out += "\"free_ids_copied\":" + std::to_string(work.free_ids_copied) +
         "},";
  out += "\"net_bytes_delivered\":" + JsonNumber(result.net_bytes_delivered) +
         ",";
  out += "\"cache_insertions\":" + std::to_string(result.cache_insertions) +
         ",";
  out += "\"cache_hits\":" + std::to_string(result.cache_hits) + ",";
  out += "\"speculative_launches\":" +
         std::to_string(result.speculative_launches) + ",";
  out += "\"speculative_wins\":" + std::to_string(result.speculative_wins) +
         ",";
  out += "\"nodes_failed\":" + std::to_string(result.nodes_failed) + ",";
  out += "\"launches_local\":" + std::to_string(result.launches_local) + ",";
  out += "\"launches_covered_busy\":" +
         std::to_string(result.launches_covered_busy) + ",";
  out += "\"launches_uncovered\":" + std::to_string(result.launches_uncovered) +
         ",";
  out += "\"makespan\":" + JsonNumber(result.makespan) + ",";
  out += "\"events_processed\":" + std::to_string(result.events_processed) +
         ",";
  out += "\"jobs_completed\":" + std::to_string(result.jobs_completed) + ",";
  out += "\"jobs_retired\":" + std::to_string(result.jobs_retired) + ",";
  out += "\"peak_live_tasks\":" + std::to_string(result.peak_live_tasks) +
         "}";
  return out;
}

}  // namespace custody::svc
