// The control plane end-to-end over real loopback HTTP:
//
//  - Determinism: a config submitted as JSON yields the bit-identical
//    ExperimentResult a direct RunExperiment call produces (exact doubles,
//    events_processed included), for every manager kind.
//  - The codec round-trips configs exactly and rejects unknown keys.
//  - Every ValidateConfig rejection surfaces as a structured 400 naming
//    the offending field.
//  - Concurrent submissions from multiple client threads all complete
//    correctly (input-order-independent; TSan-clean).
//  - Sessions: fork-twice-identical, fork-diverge-after-perturbation,
//    snapshots restorable, busy/unknown ids → 409/404.
//  - Cancel, trace export, and clean errors for malformed traffic.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/snapshot.h"
#include "svc/json_api.h"
#include "svc/router.h"
#include "svc/server.h"
#include "svc/session.h"
#include "workload/harness.h"

namespace custody::svc {
namespace {

using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::ManagerKind;
using workload::RunExperiment;
using workload::WorkloadKind;

ExperimentConfig SmallConfig(ManagerKind manager,
                             WorkloadKind kind = WorkloadKind::kWordCount,
                             std::size_t nodes = 20, std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.num_nodes = nodes;
  config.executors_per_node = 2;
  config.manager = manager;
  config.kinds = {kind};
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 5;
  config.trace.files_per_kind = 4;
  config.seed = seed;
  return config;
}

/// Every knob off its default, tracing and checkpoint included.
ExperimentConfig OffDefaultConfig() {
  ExperimentConfig c;
  c.num_nodes = 37;
  c.executors_per_node = 3;
  c.disk_mbps = 250.5;
  c.uplink_gbps = 1.25;
  c.downlink_gbps = 10.0;
  c.core_gbps = 80.0;
  c.block_mb = 64.0;
  c.replication = 2;
  c.dataset.popularity_replication = true;
  c.dataset.popularity_extra_replicas = 1;
  c.dataset.hot_fraction = 0.1;
  c.cache_mb_per_node = 512.0;
  c.manager = ManagerKind::kOffer;
  c.allocator.locality_fair = false;
  c.allocator.priority_jobs = false;
  c.scheduler.kind = app::SchedulerKind::kLocalityPreferred;
  c.scheduler.locality_wait = 1.5;
  c.shuffle_fan_in = 5;
  c.speculation = true;
  c.speculation_multiplier = 2.0;
  c.slow_node_fraction = 0.2;
  c.slow_node_factor = 3.0;
  c.node_failures = 2;
  c.failure_start = 15.0;
  c.failure_interval = 30.0;
  c.kinds = {WorkloadKind::kSort, WorkloadKind::kPageRank};
  c.trace.num_apps = 3;
  c.trace.jobs_per_app = 7;
  c.trace.mean_interarrival = 0.1 + 0.2;  // a non-representable double
  c.trace.zipf_skew = 1.1;
  c.trace.files_per_kind = 5;
  c.params.pagerank_iterations = 4;
  c.params.pagerank_compute_per_byte = 2e-8;
  c.params.pagerank_shuffle_ratio = 0.6;
  c.params.pagerank_iter_compute_per_byte = 3e-9;
  c.params.wordcount_compute_per_byte = 4e-9;
  c.params.wordcount_shuffle_ratio = 0.05;
  c.params.wordcount_reduce_secs = 0.7;
  c.params.sort_compute_per_byte = 5e-9;
  c.params.sort_shuffle_ratio = 0.9;
  c.params.sort_reduce_compute_per_byte = 6e-9;
  c.steady.enabled = true;
  c.steady.retire_jobs = false;
  c.steady.streaming_metrics = false;
  c.steady.warmup = 12.5;
  c.steady.diurnal_amplitude = 0.5;
  c.steady.diurnal_period = 900.0;
  c.tracing.enabled = true;
  c.tracing.capacity = 4096;
  c.checkpoint.every = 25.0;
  c.checkpoint.directory = "elsewhere";
  c.checkpoint.resume_path = "some.snap";
  c.seed = 2024;
  return c;
}

ExperimentConfig SteadyConfig(std::uint64_t seed = 7) {
  ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  config.trace.jobs_per_app = 20;
  config.steady.enabled = true;
  config.seed = seed;
  return config;
}

/// Everything deterministic in a result, as exact doubles, from its wire
/// form.  Shared by the identity tests below.
void ExpectWireResultMatches(const JsonValue& wire,
                             const ExperimentResult& direct) {
  EXPECT_EQ(wire.find("manager_name")->as_string(), direct.manager_name);
  const JsonValue& jct = *wire.find("jct");
  EXPECT_EQ(jct.find("count")->as_number(),
            static_cast<double>(direct.jct.count));
  EXPECT_EQ(jct.find("mean")->as_number(), direct.jct.mean);
  EXPECT_EQ(jct.find("p99")->as_number(), direct.jct.p99);
  EXPECT_EQ(jct.find("stddev")->as_number(), direct.jct.stddev);
  const JsonValue& locality = *wire.find("job_locality");
  EXPECT_EQ(locality.find("mean")->as_number(), direct.job_locality.mean);
  EXPECT_EQ(locality.find("max")->as_number(), direct.job_locality.max);
  EXPECT_EQ(wire.find("overall_task_locality_percent")->as_number(),
            direct.overall_task_locality_percent);
  EXPECT_EQ(wire.find("local_job_percent")->as_number(),
            direct.local_job_percent);
  EXPECT_EQ(wire.find("makespan")->as_number(), direct.makespan);
  EXPECT_EQ(wire.find("net_bytes_delivered")->as_number(),
            direct.net_bytes_delivered);
  EXPECT_EQ(wire.find("events_processed")->as_number(),
            static_cast<double>(direct.events_processed));
  EXPECT_EQ(wire.find("jobs_completed")->as_number(),
            static_cast<double>(direct.jobs_completed));
  const std::vector<JsonValue>& fractions =
      wire.find("per_app_local_job_fraction")->items();
  ASSERT_EQ(fractions.size(), direct.per_app_local_job_fraction.size());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    EXPECT_EQ(fractions[i].as_number(),
              direct.per_app_local_job_fraction[i]);
  }
}

class ControlPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;
    options.http_workers = 3;
    options.runners = 2;
    options.snapshot_dir = ::testing::TempDir() + "svc_snaps";
    plane_ = std::make_unique<ControlPlane>(options);
    plane_->start();
    port_ = plane_->port();
  }

  /// Poll GET /experiments/:id until the state is terminal.
  JsonValue WaitForTerminal(const std::string& id) {
    for (int i = 0; i < 2000; ++i) {
      const ClientResponse response =
          Fetch(port_, "GET", "/experiments/" + id);
      EXPECT_EQ(response.status, 200);
      JsonValue body = JsonReader::Parse(response.body);
      const std::string& state = body.find("state")->as_string();
      if (state != "queued" && state != "running") return body;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "experiment " << id << " never reached a terminal state";
    return JsonValue();
  }

  std::string Submit(const ExperimentConfig& config) {
    const ClientResponse response =
        Fetch(port_, "POST", "/experiments", ConfigToJson(config));
    EXPECT_EQ(response.status, 202) << response.body;
    const JsonValue body = JsonReader::Parse(response.body);
    return std::to_string(
        static_cast<std::uint64_t>(body.find("id")->as_number()));
  }

  std::unique_ptr<ControlPlane> plane_;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(JsonApi, ConfigRoundTripsExactly) {
  ExperimentConfig config = SmallConfig(ManagerKind::kOffer,
                                        WorkloadKind::kSort, 30, 9);
  config.kinds = {WorkloadKind::kSort, WorkloadKind::kPageRank};
  config.cache_mb_per_node = 512.0;
  config.dataset.popularity_replication = true;
  config.slow_node_fraction = 0.2;
  config.speculation = true;
  config.steady.warmup = 12.5;
  config.scheduler.kind = app::SchedulerKind::kFifo;
  config.allocator.locality_fair = false;
  config.trace.mean_interarrival = 0.1 + 0.2;  // a non-representable double
  const ExperimentConfig decoded =
      ConfigFromJsonText(ConfigToJson(config));
  EXPECT_EQ(decoded.num_nodes, config.num_nodes);
  EXPECT_EQ(decoded.manager, config.manager);
  EXPECT_EQ(decoded.kinds, config.kinds);
  EXPECT_EQ(decoded.cache_mb_per_node, config.cache_mb_per_node);
  EXPECT_EQ(decoded.dataset.popularity_replication,
            config.dataset.popularity_replication);
  EXPECT_EQ(decoded.slow_node_fraction, config.slow_node_fraction);
  EXPECT_EQ(decoded.speculation, config.speculation);
  EXPECT_EQ(decoded.steady.warmup, config.steady.warmup);
  EXPECT_EQ(decoded.scheduler.kind, config.scheduler.kind);
  EXPECT_EQ(decoded.allocator.locality_fair, config.allocator.locality_fair);
  // Exact bits, not approximately equal.
  EXPECT_EQ(decoded.trace.mean_interarrival, config.trace.mean_interarrival);
  EXPECT_EQ(decoded.seed, config.seed);
  EXPECT_EQ(workload::ConfigHash(decoded, decoded.manager),
            workload::ConfigHash(config, config.manager));
}

TEST(JsonApi, RejectsUnknownAndMistypedFields) {
  EXPECT_THROW(ConfigFromJsonText("{\"num_nodez\":5}"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFromJsonText("{\"trace\":{\"jobz\":5}}"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFromJsonText("{\"num_nodes\":\"five\"}"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFromJsonText("{\"num_nodes\":2.5}"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFromJsonText("{\"speculation\":1}"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFromJsonText("{\"manager\":\"yarn\"}"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFromJsonText("{\"kinds\":[\"TensorFlow\"]}"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFromJsonText("{\"checkpoint\":{}}"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFromJsonText("[1,2]"), std::invalid_argument);
  EXPECT_NO_THROW(ConfigFromJsonText("{}"));
  // Removed simulator-internal switches: an old client gets an error that
  // names the field, not a silently different run.
  for (const auto& [text, path] :
       std::vector<std::pair<std::string, std::string>>{
           {"{\"scheduler\":{\"indexed\":false}}", "scheduler.indexed"},
           {"{\"allocator\":{\"indexed\":true}}", "allocator.indexed"},
           {"{\"allocator\":{\"demand_driven\":false}}",
            "allocator.demand_driven"},
           {"{\"incremental_network\":false}", "incremental_network"},
           {"{\"component_partitioned_network\":false}",
            "component_partitioned_network"},
           {"{\"steady\":{\"materialize_submissions\":true}}",
            "steady.materialize_submissions"},
           // The catalog's size and skew are the trace's.
           {"{\"dataset\":{\"zipf_skew\":2}}", "dataset.zipf_skew"},
           {"{\"dataset\":{\"files_per_kind\":4}}",
            "dataset.files_per_kind"}}) {
    try {
      (void)ConfigFromJsonText(text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                path + " is not a recognized config field");
    }
  }
}

TEST(JsonApi, RejectsIntegersOutsideTheFieldType) {
  // Above 2^53 a JSON number is no longer exact: the encoder writes the
  // seed digit for digit, and the decoder refuses it rather than rounding.
  ExperimentConfig huge_seed;
  huge_seed.seed = (std::uint64_t{1} << 53) + 1;
  const std::string huge_seed_text = ConfigToJson(huge_seed);
  EXPECT_NE(huge_seed_text.find("\"seed\":9007199254740993"),
            std::string::npos);
  for (const auto& [text, path] :
       std::vector<std::pair<std::string, std::string>>{
           {"{\"executors_per_node\":4294967298}", "executors_per_node"},
           {"{\"trace\":{\"num_apps\":4294967297}}", "trace.num_apps"},
           {huge_seed_text, "seed"}}) {
    try {
      (void)ConfigFromJsonText(text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(path + " ", 0), 0u) << e.what();
    }
  }
}

/// `value` as compact JSON, members in document order.
std::string Dump(const JsonValue& value) {
  std::string out;
  switch (value.kind()) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return value.as_bool() ? "true" : "false";
    case JsonValue::Kind::kNumber: return JsonNumber(value.as_number());
    case JsonValue::Kind::kString: return JsonQuote(value.as_string());
    case JsonValue::Kind::kArray:
      for (const JsonValue& item : value.items()) {
        out += (out.empty() ? "" : ",") + Dump(item);
      }
      return "[" + out + "]";
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.members()) {
        out += (out.empty() ? "" : ",") + JsonQuote(key) + ":" + Dump(member);
      }
      return "{" + out + "}";
  }
  return out;
}

/// A copy of `value` whose `target`-th leaf, in document order, holds
/// another value of its type.  `seen` counts the leaves walked; `path`
/// receives the changed leaf's path.
JsonValue ChangeLeaf(const JsonValue& value, const std::string& at,
                     int target, int& seen, std::string& path) {
  if (value.is_object()) {
    std::vector<std::pair<std::string, JsonValue>> members;
    for (const auto& [key, member] : value.members()) {
      members.emplace_back(key, ChangeLeaf(member, at.empty() ? key
                                                              : at + "." + key,
                                           target, seen, path));
    }
    return JsonValue::MakeObject(std::move(members));
  }
  if (seen++ != target) return value;
  path = at;
  if (value.is_bool()) return JsonValue::MakeBool(!value.as_bool());
  if (value.is_number()) return JsonValue::MakeNumber(value.as_number() + 1);
  if (value.is_array()) {
    return JsonValue::MakeArray({JsonValue::MakeString("WordCount")});
  }
  const std::map<std::string, std::string> other_name = {
      {"manager", "pool"}, {"scheduler.kind", "fifo"}};
  EXPECT_EQ(other_name.count(at), 1u) << "no other name for " << at;
  return JsonValue::MakeString(other_name.count(at) ? other_name.at(at) : "");
}

TEST(JsonApi, EveryLeafRoundTripsAndOnlyTracingLeavesKeepTheHash) {
  const JsonValue base = JsonReader::Parse(ConfigToJson(OffDefaultConfig()));
  const ExperimentConfig base_config = ConfigFromJson(base);
  const std::uint64_t base_hash =
      workload::ConfigHash(base_config, base_config.manager);
  int leaves = 0;
  for (int target = 0;; ++target) {
    int seen = 0;
    std::string path;
    const JsonValue changed = ChangeLeaf(base, "", target, seen, path);
    if (seen <= target) break;
    leaves = seen;
    SCOPED_TRACE(path);
    const ExperimentConfig decoded = ConfigFromJson(changed);
    EXPECT_EQ(Dump(JsonReader::Parse(ConfigToJson(decoded))), Dump(changed));
    const std::uint64_t hash = workload::ConfigHash(decoded, decoded.manager);
    if (path.rfind("tracing.", 0) == 0) {
      EXPECT_EQ(hash, base_hash);
    } else {
      EXPECT_NE(hash, base_hash);
    }
  }
  EXPECT_EQ(leaves, 50) << "every config field is one leaf of the document";
}

// The snapshot header carries ConfigHash, so these constants moving means
// checkpoints written by an earlier build no longer resume.
TEST(ConfigHash, IsPinnedForThreeConfigsUnderEveryManager) {
  const std::vector<std::pair<std::string, ExperimentConfig>> configs = {
      {"default", ExperimentConfig{}},
      {"small", SmallConfig(ManagerKind::kCustody)},
      {"off-default", OffDefaultConfig()}};
  const ManagerKind managers[] = {ManagerKind::kStandalone,
                                  ManagerKind::kCustody, ManagerKind::kOffer,
                                  ManagerKind::kPool};
  const std::uint64_t pinned[3][4] = {
      {0x80c573085f191301ull, 0xbb9308e9a2993924ull, 0xb64eec0e67882f8bull,
       0x17571025d03163f6ull},
      {0x82740561005e7f84ull, 0x497b1f76db969399ull, 0xc4b486c56c5baa56ull,
       0x95ef3dcf157d3223ull},
      {0x34e2cd4ca6ac8b97ull, 0x187a47a2a0c343c2ull, 0xbee86286c7eeef81ull,
       0x4e688aaf6ad0c204ull}};
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (std::size_t m = 0; m < 4; ++m) {
      const std::uint64_t hash =
          workload::ConfigHash(configs[c].second, managers[m]);
      char hex[24];
      std::snprintf(hex, sizeof hex, "0x%016llxull",
                    static_cast<unsigned long long>(hash));
      EXPECT_EQ(hash, pinned[c][m])
          << configs[c].first << " under "
          << workload::ManagerName(managers[m]) << ": " << hex;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: HTTP == direct, for every manager
// ---------------------------------------------------------------------------

TEST_F(ControlPlaneTest, HttpSubmissionIsBitIdenticalToDirectRun) {
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kStandalone, ManagerKind::kPool,
        ManagerKind::kOffer}) {
    const ExperimentConfig config = SmallConfig(manager);
    SCOPED_TRACE(ConfigToJson(config).substr(0, 60));
    const ExperimentResult direct = RunExperiment(config);
    const std::string id = Submit(config);
    const JsonValue done = WaitForTerminal(id);
    ASSERT_EQ(done.find("state")->as_string(), "done");
    ExpectWireResultMatches(*done.find("result"), direct);
    // The dedicated metrics endpoint serves the same document.
    const ClientResponse metrics =
        Fetch(port_, "GET", "/experiments/" + id + "/metrics");
    ASSERT_EQ(metrics.status, 200);
    ExpectWireResultMatches(JsonReader::Parse(metrics.body), direct);
  }
}

TEST_F(ControlPlaneTest, ConcurrentSubmissionsAreOrderIndependent) {
  // 8 distinct configs, submitted from 4 client threads at once, results
  // polled concurrently: every job must match its own direct run no
  // matter which runner picked it up or in which order.
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    configs.push_back(SmallConfig(
        i % 2 == 0 ? ManagerKind::kCustody : ManagerKind::kStandalone,
        i % 3 == 0 ? WorkloadKind::kSort : WorkloadKind::kWordCount,
        /*nodes=*/15 + i, /*seed=*/100 + i));
  }
  std::vector<ExperimentResult> direct;
  direct.reserve(configs.size());
  for (const ExperimentConfig& config : configs) {
    direct.push_back(RunExperiment(config));
  }
  std::vector<std::string> ids(configs.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([this, t, &configs, &ids] {
      for (std::size_t i = static_cast<std::size_t>(t);
           i < configs.size(); i += 4) {
        ids[i] = Submit(configs[i]);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    const JsonValue done = WaitForTerminal(ids[i]);
    ASSERT_EQ(done.find("state")->as_string(), "done");
    ExpectWireResultMatches(*done.find("result"), direct[i]);
  }
}

// ---------------------------------------------------------------------------
// Structured 400s: the ValidateConfig rejection table through HTTP
// ---------------------------------------------------------------------------

TEST_F(ControlPlaneTest, EveryValidationRejectionIsAStructured400) {
  const ExperimentConfig good = SmallConfig(ManagerKind::kCustody);
  using Mutate = std::function<void(ExperimentConfig&)>;
  const std::vector<std::pair<Mutate, std::string>> table = {
      {[](auto& c) { c.num_nodes = 0; }, "num_nodes"},
      {[](auto& c) { c.executors_per_node = 0; }, "executors_per_node"},
      {[](auto& c) { c.executors_per_node = -3; }, "executors_per_node"},
      {[](auto& c) { c.disk_mbps = -1.0; }, "disk_mbps"},
      {[](auto& c) { c.uplink_gbps = 0.0; }, "uplink_gbps"},
      {[](auto& c) { c.downlink_gbps = -2.0; }, "downlink_gbps"},
      {[](auto& c) { c.core_gbps = -1.0; }, "core_gbps"},
      {[](auto& c) { c.block_mb = 0.0; }, "block_mb"},
      {[](auto& c) { c.replication = 0; }, "replication"},
      {[](auto& c) { c.cache_mb_per_node = -1.0; }, "cache_mb_per_node"},
      {[](auto& c) { c.dataset.hot_fraction = 1.5; }, "dataset.hot_fraction"},
      {[](auto& c) { c.dataset.popularity_extra_replicas = -1; },
       "dataset.popularity_extra_replicas"},
      {[](auto& c) { c.shuffle_fan_in = 0; }, "shuffle_fan_in"},
      {[](auto& c) {
         c.speculation = true;
         c.speculation_multiplier = 1.0;
       },
       "speculation_multiplier"},
      {[](auto& c) { c.slow_node_fraction = -0.1; }, "slow_node_fraction"},
      {[](auto& c) { c.slow_node_fraction = 1.1; }, "slow_node_fraction"},
      {[](auto& c) { c.slow_node_factor = 0.0; }, "slow_node_factor"},
      {[](auto& c) { c.node_failures = -1; }, "node_failures"},
      {[](auto& c) {
         c.node_failures = 1;
         c.failure_start = -5.0;
       },
       "failure_start"},
      {[](auto& c) {
         c.node_failures = 3;
         c.failure_interval = 0.0;
       },
       "failure_interval"},
      {[](auto& c) { c.kinds.clear(); }, "kinds"},
      {[](auto& c) { c.trace.num_apps = 0; }, "trace.num_apps"},
      {[](auto& c) { c.trace.num_apps = -4; }, "trace.num_apps"},
      {[](auto& c) { c.trace.jobs_per_app = 0; }, "trace.jobs_per_app"},
      {[](auto& c) { c.trace.mean_interarrival = 0.0; },
       "trace.mean_interarrival"},
      {[](auto& c) { c.trace.zipf_skew = -0.5; }, "trace.zipf_skew"},
      {[](auto& c) { c.trace.files_per_kind = 0; }, "trace.files_per_kind"},
      {[](auto& c) { c.steady.warmup = -1.0; }, "steady.warmup"},
      {[](auto& c) { c.steady.diurnal_amplitude = -0.2; },
       "steady.diurnal_amplitude"},
      {[](auto& c) {
         c.steady.enabled = true;
         c.steady.retire_jobs = true;
         c.steady.streaming_metrics = false;
       },
       "steady.retire_jobs"},
  };
  for (std::size_t i = 0; i < table.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i) + " (" + table[i].second + ")");
    ExperimentConfig bad = good;
    table[i].first(bad);
    const ClientResponse response =
        Fetch(port_, "POST", "/experiments", ConfigToJson(bad));
    EXPECT_EQ(response.status, 400) << response.body;
    const JsonValue body = JsonReader::Parse(response.body);
    ASSERT_NE(body.find("field"), nullptr) << response.body;
    EXPECT_EQ(body.find("field")->as_string(), table[i].second)
        << response.body;
  }
}

TEST_F(ControlPlaneTest, IntegersOutsideTheFieldTypeAreStructured400s) {
  for (const auto& [body, field] :
       std::vector<std::pair<std::string, std::string>>{
           {"{\"executors_per_node\":4294967298}", "executors_per_node"},
           {"{\"trace\":{\"num_apps\":4294967297}}", "trace.num_apps"}}) {
    const ClientResponse response =
        Fetch(port_, "POST", "/experiments", body);
    EXPECT_EQ(response.status, 400) << response.body;
    const JsonValue error = JsonReader::Parse(response.body);
    ASSERT_NE(error.find("field"), nullptr) << response.body;
    EXPECT_EQ(error.find("field")->as_string(), field) << response.body;
  }
}

// ---------------------------------------------------------------------------
// Sessions: forking and what-if divergence
// ---------------------------------------------------------------------------

TEST_F(ControlPlaneTest, UnperturbedForksAreBitIdenticalAndRepeatable) {
  const ClientResponse created =
      Fetch(port_, "POST", "/sessions", ConfigToJson(SteadyConfig()));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string id = std::to_string(static_cast<std::uint64_t>(
      JsonReader::Parse(created.body).find("id")->as_number()));

  const ClientResponse advanced = Fetch(
      port_, "POST", "/sessions/" + id + "/advance", "{\"until\":100}");
  ASSERT_EQ(advanced.status, 200) << advanced.body;
  EXPECT_EQ(JsonReader::Parse(advanced.body).find("sim_time")->as_number(),
            100.0);

  // Fork twice with no perturbation: within each report base == whatif,
  // and the two reports are byte-identical (determinism, twice over).
  const std::string fork_body = "{\"perturb\":{\"kind\":\"none\"}}";
  const ClientResponse fork1 =
      Fetch(port_, "POST", "/sessions/" + id + "/fork", fork_body);
  const ClientResponse fork2 =
      Fetch(port_, "POST", "/sessions/" + id + "/fork", fork_body);
  ASSERT_EQ(fork1.status, 200) << fork1.body;
  ASSERT_EQ(fork2.status, 200);
  EXPECT_EQ(fork1.body, fork2.body);
  const JsonValue report = JsonReader::Parse(fork1.body);
  EXPECT_EQ(report.find("forked_at")->as_number(), 100.0);
  EXPECT_TRUE(report.find("drained")->as_bool());
  const JsonValue& delta = *report.find("delta");
  EXPECT_EQ(delta.find("jct_mean")->as_number(), 0.0);
  EXPECT_EQ(delta.find("jct_p99")->as_number(), 0.0);
  EXPECT_EQ(delta.find("local_job_percent")->as_number(), 0.0);
  EXPECT_EQ(delta.find("jobs_completed")->as_number(), 0.0);

  // And the parent session is still exactly at its boundary.
  const ClientResponse status = Fetch(port_, "GET", "/sessions/" + id);
  EXPECT_EQ(JsonReader::Parse(status.body).find("sim_time")->as_number(),
            100.0);
}

TEST_F(ControlPlaneTest, PerturbedForkDivergesWhileBaseStaysPinned) {
  // Steady and classic sessions alike: both draw a lazy submission stream,
  // so an arrival-rate what-if rescales either one's future arrivals.
  ExperimentConfig classic = SteadyConfig();
  classic.steady.enabled = false;
  for (const ExperimentConfig& config : {SteadyConfig(), classic}) {
    SCOPED_TRACE(config.steady.enabled ? "steady session" : "classic session");
    const ClientResponse created =
        Fetch(port_, "POST", "/sessions", ConfigToJson(config));
    ASSERT_EQ(created.status, 201);
    const std::string id = std::to_string(static_cast<std::uint64_t>(
        JsonReader::Parse(created.body).find("id")->as_number()));
    ASSERT_EQ(Fetch(port_, "POST", "/sessions/" + id + "/advance",
                    "{\"until\":100}")
                  .status,
              200);

    const ClientResponse plain = Fetch(
        port_, "POST", "/sessions/" + id + "/fork",
        "{\"perturb\":{\"kind\":\"none\"}}");
    const ClientResponse perturbed = Fetch(
        port_, "POST", "/sessions/" + id + "/fork",
        "{\"perturb\":{\"kind\":\"arrival_rate\",\"factor\":4.0}}");
    ASSERT_EQ(plain.status, 200);
    ASSERT_EQ(perturbed.status, 200) << perturbed.body;
    const JsonValue plain_report = JsonReader::Parse(plain.body);
    const JsonValue perturbed_report = JsonReader::Parse(perturbed.body);
    // The unperturbed twin is identical across both forks...
    const JsonValue& base_a = *plain_report.find("base");
    const JsonValue& base_b = *perturbed_report.find("base");
    EXPECT_EQ(base_a.find("events_processed")->as_number(),
              base_b.find("events_processed")->as_number());
    EXPECT_EQ(base_a.find("jct")->find("mean")->as_number(),
              base_b.find("jct")->find("mean")->as_number());
    // ...while the 4x-load what-if diverges from its own base.
    const JsonValue& whatif = *perturbed_report.find("whatif");
    EXPECT_NE(whatif.find("events_processed")->as_number(),
              base_b.find("events_processed")->as_number());
    EXPECT_NE(perturbed_report.find("delta")->find("jct_mean")->as_number(),
              0.0);
    // Node-failure perturbation also diverges and reports the dead node.
    const ClientResponse crashed = Fetch(
        port_, "POST", "/sessions/" + id + "/fork",
        "{\"perturb\":{\"kind\":\"node_failure\",\"node\":3}}");
    ASSERT_EQ(crashed.status, 200) << crashed.body;
    const JsonValue crash_report = JsonReader::Parse(crashed.body);
    EXPECT_EQ(
        crash_report.find("whatif")->find("nodes_failed")->as_number(), 1.0);
    EXPECT_EQ(crash_report.find("base")->find("nodes_failed")->as_number(),
              0.0);
  }
}

TEST_F(ControlPlaneTest, SessionSnapshotLandsOnDiskAndParses) {
  const ClientResponse created =
      Fetch(port_, "POST", "/sessions", ConfigToJson(SteadyConfig()));
  ASSERT_EQ(created.status, 201);
  const std::string id = std::to_string(static_cast<std::uint64_t>(
      JsonReader::Parse(created.body).find("id")->as_number()));
  ASSERT_EQ(Fetch(port_, "POST", "/sessions/" + id + "/advance",
                  "{\"until\":50}")
                .status,
            200);
  const ClientResponse snapshot =
      Fetch(port_, "POST", "/sessions/" + id + "/snapshot");
  ASSERT_EQ(snapshot.status, 201) << snapshot.body;
  const std::string path =
      JsonReader::Parse(snapshot.body).find("path")->as_string();
  // The file is a valid snap:: snapshot taken at the session boundary.
  snap::SnapshotReader reader(snap::ReadFile(path));
  EXPECT_EQ(reader.sim_time(), 50.0);
}

TEST_F(ControlPlaneTest, SessionLifecycleErrorsAreClean) {
  EXPECT_EQ(Fetch(port_, "GET", "/sessions/77").status, 404);
  EXPECT_EQ(Fetch(port_, "DELETE", "/sessions/77").status, 404);
  // Tracing sessions are rejected up front (save() cannot serialize them).
  ExperimentConfig traced = SteadyConfig();
  traced.tracing.enabled = true;
  const ClientResponse rejected =
      Fetch(port_, "POST", "/sessions", ConfigToJson(traced));
  EXPECT_EQ(rejected.status, 400);
  // advance without a horizon is a 400, not a hang.
  const ClientResponse created =
      Fetch(port_, "POST", "/sessions", ConfigToJson(SteadyConfig()));
  const std::string id = std::to_string(static_cast<std::uint64_t>(
      JsonReader::Parse(created.body).find("id")->as_number()));
  EXPECT_EQ(
      Fetch(port_, "POST", "/sessions/" + id + "/advance", "{}").status,
      400);
  // Destroy, then every follow-up is 404.
  EXPECT_EQ(Fetch(port_, "DELETE", "/sessions/" + id).status, 204);
  EXPECT_EQ(Fetch(port_, "GET", "/sessions/" + id).status, 404);
}

// Regression: acquire() must take the session lock under the registry lock,
// or a concurrent destroy() can free the Session between lookup and lock
// (use-after-free on the mutex).  TSan/ASan flag the old interleaving.
TEST(SessionServiceRace, ConcurrentDestroyAndStatusIsSafe) {
  SessionService sessions(::testing::TempDir() + "svc_race_snaps");
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t id = sessions.create(SteadyConfig());
    std::thread poller([&sessions, id] {
      for (int i = 0; i < 64; ++i) {
        try {
          (void)sessions.status(id);
        } catch (const std::out_of_range&) {
          return;  // destroyed under us — the expected end
        } catch (const SessionBusy&) {
        }
      }
    });
    std::thread destroyer([&sessions, id] {
      for (;;) {
        try {
          sessions.destroy(id);
          return;
        } catch (const SessionBusy&) {
          std::this_thread::yield();  // an op is in flight; retry
        }
      }
    });
    poller.join();
    destroyer.join();
    EXPECT_EQ(sessions.open_sessions(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Cancel, trace, and hostile traffic
// ---------------------------------------------------------------------------

TEST_F(ControlPlaneTest, CancelStopsAQueuedOrRunningExperiment) {
  // A config big enough to outlive the DELETE round-trip.
  ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  config.trace.jobs_per_app = 400;
  config.num_nodes = 40;
  const std::string id = Submit(config);
  const ClientResponse cancel =
      Fetch(port_, "DELETE", "/experiments/" + id);
  EXPECT_EQ(cancel.status, 202) << cancel.body;
  const JsonValue done = WaitForTerminal(id);
  // Either the cancel landed mid-run, or the run beat it to the finish.
  const std::string& state = done.find("state")->as_string();
  EXPECT_TRUE(state == "cancelled" || state == "done") << state;
  if (state == "cancelled") {
    EXPECT_EQ(Fetch(port_, "GET", "/experiments/" + id + "/metrics").status,
              409);
  }
  // DELETE on a terminal job reclaims it (200 deleted); afterwards the id
  // is gone, so follow-ups — including a repeat DELETE — are 404.
  const ClientResponse removed = Fetch(port_, "DELETE", "/experiments/" + id);
  EXPECT_EQ(removed.status, 200) << removed.body;
  EXPECT_NE(removed.body.find("\"deleted\""), std::string::npos);
  EXPECT_EQ(Fetch(port_, "GET", "/experiments/" + id).status, 404);
  EXPECT_EQ(Fetch(port_, "DELETE", "/experiments/" + id).status, 404);
}

TEST_F(ControlPlaneTest, TraceEndpointServesChromeTraceJson) {
  ExperimentConfig config = SmallConfig(ManagerKind::kCustody);
  config.tracing.enabled = true;
  const std::string id = Submit(config);
  const JsonValue done = WaitForTerminal(id);
  ASSERT_EQ(done.find("state")->as_string(), "done");
  const ClientResponse trace =
      Fetch(port_, "GET", "/experiments/" + id + "/trace");
  ASSERT_EQ(trace.status, 200);
  // The export is valid JSON with the Chrome trace-event shape.
  const JsonValue document = JsonReader::Parse(trace.body);
  const JsonValue* events = document.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->items().size(), 0u);
  // An untraced run 404s instead of serving an empty document.
  const std::string plain = Submit(SmallConfig(ManagerKind::kCustody));
  ASSERT_EQ(WaitForTerminal(plain).find("state")->as_string(), "done");
  EXPECT_EQ(Fetch(port_, "GET", "/experiments/" + plain + "/trace").status,
            404);
}

TEST_F(ControlPlaneTest, HostileTrafficGetsCleanErrors) {
  // Malformed JSON → 400 with the parse offset.
  const ClientResponse bad_json =
      Fetch(port_, "POST", "/experiments", "{\"num_nodes\":");
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_NE(JsonReader::Parse(bad_json.body).find("offset"), nullptr);
  // Unknown routes and wrong methods.
  EXPECT_EQ(Fetch(port_, "GET", "/nope").status, 404);
  EXPECT_EQ(Fetch(port_, "DELETE", "/healthz").status, 405);
  EXPECT_EQ(Fetch(port_, "GET", "/experiments/abc").status, 404);
  // Truncated raw request → 400, server keeps serving.
  EXPECT_NE(SendRaw(port_, "POST /experiments HTT").find("400"),
            std::string::npos);
  EXPECT_EQ(Fetch(port_, "GET", "/healthz").status, 200);
}

}  // namespace
}  // namespace custody::svc
