#include "svc/json_api.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/names.h"

namespace custody::svc {

using workload::ExperimentConfig;
using workload::ExperimentResult;

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("number: JSON cannot carry non-finite values");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

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

 private:
  const JsonValue* object_ = nullptr;
  std::string path_;
  std::set<std::string> claimed_;
};

/// The decoding walker of workload::Fields: absent keys keep the default,
/// present ones must have the member's JSON type, and an integer must be
/// exact in a double and fit the member's type.  Ranges are ValidateConfig's
/// to check; `names` matters only as an enum's name table.
class Decoder {
 public:
  explicit Decoder(ObjectScope& root) : scope_(&root) {}

  template <class T, class R = workload::Range>
  void field(const char* key, T& out, const R& names = {}) {
    const JsonValue* v = scope_->claim(key);
    if (v == nullptr) return;
    const auto fail = [&](const std::string& want) {
      throw std::invalid_argument(
          scope_->member_path(key) + " must be " + want + " (got " +
          (v->is_number() ? JsonNumber(v->as_number()) : v->kind_name()) +
          ")");
    };
    if constexpr (std::is_same_v<T, bool>) {
      if (!v->is_bool()) fail("a boolean");
      out = v->as_bool();
    } else if constexpr (std::is_floating_point_v<T>) {
      if (!v->is_number()) fail("a number");
      out = v->as_number();
    } else if constexpr (std::is_integral_v<T>) {
      // Beyond 2^53 a JSON number may already have been rounded.
      constexpr double kExact = 9007199254740991.0;
      const double lo =
          std::max(static_cast<double>(std::numeric_limits<T>::min()), -kExact);
      const double hi =
          std::min(static_cast<double>(std::numeric_limits<T>::max()), kExact);
      if (!v->is_number()) fail("an integer");
      const double n = v->as_number();
      if (!(n >= lo && n <= hi && n == std::floor(n))) {
        fail("an integer in [" + JsonNumber(lo) + ", " + JsonNumber(hi) + "]");
      }
      out = static_cast<T>(n);
    } else if constexpr (std::is_enum_v<T>) {
      if (!v->is_string()) fail("a string");
      out = KindNamed(names, v->as_string(), scope_->member_path(key));
    } else {  // a list of enum names
      if (!v->is_array()) fail("an array of names");
      out.clear();
      for (const JsonValue& item : v->items()) {
        if (!item.is_string()) fail("an array of names");
        out.push_back(
            KindNamed(names, item.as_string(), scope_->member_path(key)));
      }
    }
  }

  template <class Body>
  void group(const char* key, Body body, bool /*hashed*/ = true) {
    const JsonValue* v = scope_->claim(key);
    if (v == nullptr) return;
    ObjectScope nested(*v, scope_->member_path(key));
    ObjectScope* outer = std::exchange(scope_, &nested);
    body();
    nested.finish();
    scope_ = outer;
  }

 private:
  ObjectScope* scope_;
};

/// The encoding walker: every field, doubles as %.17g and integers exactly.
class Encoder {
 public:
  std::string out = "{";

  template <class T, class R = workload::Range>
  void field(const char* key, const T& v, const R& names = {}) {
    open(key);
    if constexpr (std::is_same_v<T, bool>) {
      out += v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
      out += JsonNumber(v);
    } else if constexpr (std::is_integral_v<T>) {
      out += std::to_string(v);
    } else if constexpr (std::is_enum_v<T>) {
      out += JsonQuote(NameIn(names, v));
    } else {
      out += "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        out += (i > 0 ? "," : "") + JsonQuote(NameIn(names, v[i]));
      }
      out += "]";
    }
  }

  template <class Body>
  void group(const char* key, Body body, bool /*hashed*/ = true) {
    open(key);
    out += "{";
    first_ = true;
    body();
    out += "}";
    first_ = false;
  }

 private:
  void open(const char* key) {
    if (!first_) out += ",";
    first_ = false;
    out += '"';
    out += key;
    out += "\":";
  }

  bool first_ = true;
};

}  // namespace

ExperimentConfig ConfigFromJson(const JsonValue& document) {
  ExperimentConfig config;
  ObjectScope root(document, "config");
  Decoder decoder(root);
  workload::Fields(config, decoder);
  if (root.claim("checkpoint") != nullptr) {
    throw std::invalid_argument(
        "checkpoint is not settable over HTTP (server-side file I/O)");
  }
  root.finish();
  return config;
}

ExperimentConfig ConfigFromJsonText(const std::string& text) {
  return ConfigFromJson(JsonReader::Parse(text));
}

std::string ConfigToJson(const ExperimentConfig& config) {
  Encoder encoder;
  workload::Fields(config, encoder);
  return encoder.out + "}";
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
