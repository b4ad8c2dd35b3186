// Tests for the observability layer (src/obs/): the ring-buffer Tracer,
// the Chrome trace-event exporter, and the JCT critical-path analyzer —
// plus the subsystem's two global contracts: tracing never changes
// simulation results (bit-identical on/off) and the analyzer's per-job
// segment sums reconcile with measured JCT within 1e-9.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/snapshot.h"
#include "obs/critical_path.h"
#include "obs/perfetto.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/experiment.h"
#include "workload/harness.h"
#include "workload/sweep.h"

namespace custody {
namespace {

using namespace custody::obs;
using namespace custody::workload;

// ---------- a minimal JSON validator ----------------------------------------
//
// Recursive-descent acceptance check (structure only, no DOM): enough to
// assert the exporter emits syntactically valid JSON without pulling a
// parser dependency into the repo.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  [[nodiscard]] bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<std::size_t>(i) >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(
                    text_[pos_ + static_cast<std::size_t>(i)]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker(R"({"a": [1, -2.5e3, "x\n", null], "b": {}})").valid());
  EXPECT_FALSE(JsonChecker("{\"a\": }").valid());
  EXPECT_FALSE(JsonChecker("[1, 2").valid());
  EXPECT_FALSE(JsonChecker("{\"a\": 01x}").valid());
}

// ---------- TraceBuffer ------------------------------------------------------

TEST(TraceBuffer, RecordsUpToCapacityWithoutDropping) {
  TraceBuffer buffer(4);
  for (int i = 0; i < 4; ++i) {
    buffer.push({.t0 = static_cast<double>(i)});
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.recorded(), 4u);
  EXPECT_EQ(buffer.dropped(), 0u);
  const auto events = buffer.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].t0, i);
  }
}

TEST(TraceBuffer, WrapOverwritesOldestAndStaysChronological) {
  TraceBuffer buffer(4);
  for (int i = 0; i < 7; ++i) {
    buffer.push({.t0 = static_cast<double>(i)});
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.recorded(), 7u);
  EXPECT_EQ(buffer.dropped(), 3u);
  // Events 0..2 were overwritten; 3..6 remain, oldest first.
  const auto events = buffer.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].t0, i + 3);
  }
}

TEST(Tracer, StampsSpansAndInstantsFromSimClock) {
  sim::Simulator sim;
  Tracer tracer(sim, {.enabled = true, .capacity = 16});
  sim.post_at(2.5, [&tracer] {
    tracer.span({.t0 = 1.0, .kind = EventKind::kStageSpan});
    tracer.instant({.node = 3, .kind = EventKind::kNodeFailure});
  });
  sim.run();
  const auto events = tracer.buffer()->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].t0, 1.0);
  EXPECT_DOUBLE_EQ(events[0].t1, 2.5);  // span end filled from the clock
  EXPECT_DOUBLE_EQ(events[1].t0, 2.5);  // instant stamped at now
  EXPECT_DOUBLE_EQ(events[1].t1, 2.5);
  EXPECT_EQ(events[1].node, 3);
}

TEST(Tracer, IdOfMapsInvalidIdsToMinusOne) {
  EXPECT_EQ(IdOf(NodeId(7)), 7);
  EXPECT_EQ(IdOf(NodeId::invalid()), -1);
  EXPECT_EQ(IdOf(TaskId::invalid()), -1);
}

// ---------- config plumbing --------------------------------------------------

TEST(TracingConfig, ZeroCapacityRejectedWhenEnabled) {
  ExperimentConfig config;
  config.tracing.enabled = true;
  config.tracing.capacity = 0;
  EXPECT_THROW(ValidateConfig(config), std::invalid_argument);
  config.tracing.enabled = false;  // capacity is irrelevant when disabled
  EXPECT_NO_THROW(ValidateConfig(config));
}

TEST(TracingConfig, DisabledRunCarriesNoBuffer) {
  ExperimentConfig config;
  config.num_nodes = 8;
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 2;
  const auto result = RunExperiment(config);
  EXPECT_EQ(result.trace, nullptr);
}

// ---------- the bit-identical on/off contract --------------------------------

ExperimentConfig TracedConfig() {
  ExperimentConfig config;
  config.num_nodes = 16;
  config.kinds = {WorkloadKind::kPageRank, WorkloadKind::kWordCount,
                  WorkloadKind::kSort};
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = 3;
  config.trace.files_per_kind = 4;
  config.seed = 42;
  return config;
}

void ExpectSummaryEq(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.median, b.median);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

/// FNV-1a over every field of every event, in order.  The wall-clock
/// `value` of allocation rounds and rate solves is zeroed: it is the only
/// field that differs between identical runs.
std::uint64_t TraceDigest(const std::vector<TraceEvent>& events) {
  std::uint64_t hash = snap::Fnv1a(nullptr, 0);  // the offset basis
  const auto mix = [&hash](const auto& field) {
    std::uint8_t bytes[sizeof field];
    std::memcpy(bytes, &field, sizeof field);
    hash = snap::Fnv1a(bytes, sizeof bytes, hash);
  };
  for (const TraceEvent& e : events) {
    const bool wall = e.kind == EventKind::kAllocRound ||
                      e.kind == EventKind::kRateSolve;
    mix(e.t0);
    mix(e.t1);
    mix(wall ? 0.0 : e.value);
    mix(e.app);
    mix(e.job);
    mix(e.id);
    mix(e.stage);
    mix(e.node);
    mix(e.block);
    mix(e.aux);
    mix(e.kind);
  }
  return hash;
}

void ExpectResultsBitIdentical(const ExperimentResult& a,
                               const ExperimentResult& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  ExpectSummaryEq(a.jct, b.jct);
  ExpectSummaryEq(a.job_locality, b.job_locality);
  ExpectSummaryEq(a.input_stage, b.input_stage);
  ExpectSummaryEq(a.sched_delay, b.sched_delay);
  EXPECT_DOUBLE_EQ(a.overall_task_locality_percent,
                   b.overall_task_locality_percent);
  EXPECT_DOUBLE_EQ(a.local_job_percent, b.local_job_percent);
  EXPECT_DOUBLE_EQ(a.net_bytes_delivered, b.net_bytes_delivered);
  EXPECT_EQ(a.launches_local, b.launches_local);
  EXPECT_EQ(a.launches_covered_busy, b.launches_covered_busy);
  EXPECT_EQ(a.launches_uncovered, b.launches_uncovered);
  EXPECT_EQ(a.manager_stats.executors_granted,
            b.manager_stats.executors_granted);
  EXPECT_EQ(a.manager_stats.allocation_rounds,
            b.manager_stats.allocation_rounds);
}

TEST(TracingOnOff, ResultsBitIdenticalAcrossManagers) {
  for (const ManagerKind manager :
       {ManagerKind::kStandalone, ManagerKind::kCustody, ManagerKind::kOffer,
        ManagerKind::kPool}) {
    auto off = TracedConfig();
    off.manager = manager;
    auto on = off;
    on.tracing.enabled = true;
    const auto result_off = RunExperiment(off);
    const auto result_on = RunExperiment(on);
    ASSERT_NE(result_on.trace, nullptr) << ManagerName(manager);
    EXPECT_GT(result_on.trace->size(), 0u) << ManagerName(manager);
    ExpectResultsBitIdentical(result_off, result_on);
  }
}

TEST(TracingOnOff, BitIdenticalUnderFailuresCacheAndSpeculation) {
  auto off = TracedConfig();
  off.cache_mb_per_node = 1024.0;
  off.speculation = true;
  off.speculation_multiplier = 1.2;
  off.node_failures = 2;
  off.failure_start = 5.0;
  off.slow_node_fraction = 0.25;
  auto on = off;
  on.tracing.enabled = true;
  const auto result_off = RunExperiment(off);
  const auto result_on = RunExperiment(on);
  EXPECT_EQ(result_on.nodes_failed, 2);
  ExpectResultsBitIdentical(result_off, result_on);

  // The traced event stream itself is pinned: every field of every event,
  // in recording order, with only the wall-clock values zeroed.  The run
  // launches clones and resets tasks, so the digest covers every
  // speculative launch, every failure reset and the executor idle-since
  // stamps those paths write.
  ASSERT_NE(result_on.trace, nullptr);
  EXPECT_EQ(result_on.trace->dropped(), 0u);
  const std::vector<TraceEvent> events = result_on.trace->events();
  const auto count = [&events](EventKind kind) {
    return std::count_if(events.begin(), events.end(),
                         [kind](const TraceEvent& e) { return e.kind == kind; });
  };
  EXPECT_GT(count(EventKind::kSpecLaunch), 0);
  EXPECT_GT(count(EventKind::kTaskReset), 0);
  const std::uint64_t digest = TraceDigest(events);
  EXPECT_EQ(digest, 0xed5014c8839f7e0aULL)
      << "trace digest 0x" << std::hex << digest;
}

// ---------- the exporter -----------------------------------------------------

TEST(ChromeTrace, ExportsValidJsonWithLayerMetadata) {
  auto config = TracedConfig();
  config.tracing.enabled = true;
  const auto result = RunExperiment(config);
  ASSERT_NE(result.trace, nullptr);
  std::ostringstream os;
  WriteChromeTrace(result.trace->events(), os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* layer : {"jobs", "tasks", "scheduling", "network"}) {
    EXPECT_NE(json.find("\"" + std::string(layer) + "\""), std::string::npos)
        << layer;
  }
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // metadata
}

TEST(ChromeTrace, WritesFileAndRejectsBadPath) {
  TraceBuffer buffer(4);
  buffer.push({.t0 = 0.5, .t1 = 1.0, .kind = EventKind::kJobSpan});
  const std::string path = ::testing::TempDir() + "/custody_trace_test.json";
  WriteChromeTrace(buffer, path);
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(JsonChecker(content.str()).valid());
  std::remove(path.c_str());
  EXPECT_THROW(WriteChromeTrace(buffer, "/nonexistent-dir/x/y.json"),
               std::runtime_error);
}

TEST(ChromeTrace, EmptyBufferStillValidJson) {
  std::ostringstream os;
  WriteChromeTrace(std::vector<TraceEvent>{}, os);
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

// ---------- the critical-path analyzer ---------------------------------------

/// The acceptance scenario: a 4-app mixed workload (all three paper
/// workloads in one trace), exported JSON valid AND every job's segment
/// sum reconciling with its measured JCT within 1e-9.
TEST(CriticalPath, MixedWorkloadReconcilesAndExportsValidJson) {
  auto config = TracedConfig();
  config.tracing.enabled = true;
  const auto result = RunExperiment(config);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_EQ(result.trace->dropped(), 0u);

  // (1) The exported timeline is valid Chrome JSON.
  std::ostringstream os;
  WriteChromeTrace(result.trace->events(), os);
  EXPECT_TRUE(JsonChecker(os.str()).valid());

  // (2) Every finished job's breakdown telescopes back to its JCT.
  const CriticalPathAnalyzer analyzer(result.trace->events());
  ASSERT_EQ(analyzer.jobs().size(),
            static_cast<std::size_t>(result.jobs_completed));
  for (const JobBreakdown& job : analyzer.jobs()) {
    EXPECT_GT(job.jct(), 0.0) << "job " << job.job;
    EXPECT_LT(std::abs(job.segment_sum() - job.jct()), 1e-9)
        << "job " << job.job << ": segments sum to " << job.segment_sum()
        << " but JCT is " << job.jct();
    EXPECT_GE(job.compute, 0.0);
    EXPECT_GE(job.sched_delay, -1e-12);
    EXPECT_GE(job.executor_wait, -1e-12);
  }
  // Mean JCT from the analyzer matches the metrics pipeline's.
  double total = 0.0;
  for (const JobBreakdown& job : analyzer.jobs()) total += job.jct();
  EXPECT_NEAR(total / static_cast<double>(analyzer.jobs().size()),
              result.jct.mean, 1e-9);
}

TEST(CriticalPath, ReconcilesUnderFailuresAndSpeculation) {
  auto config = TracedConfig();
  config.tracing.enabled = true;
  config.speculation = true;
  config.speculation_multiplier = 1.2;
  config.node_failures = 2;
  config.failure_start = 5.0;
  config.slow_node_fraction = 0.25;
  const auto result = RunExperiment(config);
  ASSERT_NE(result.trace, nullptr);
  ASSERT_EQ(result.trace->dropped(), 0u);
  const CriticalPathAnalyzer analyzer(result.trace->events());
  ASSERT_EQ(analyzer.jobs().size(),
            static_cast<std::size_t>(result.jobs_completed));
  for (const JobBreakdown& job : analyzer.jobs()) {
    EXPECT_LT(std::abs(job.segment_sum() - job.jct()), 1e-9)
        << "job " << job.job;
  }
}

TEST(CriticalPath, LocalityHistogramMatchesLaunchBreakdown) {
  // Without failures, every input task's final verdict corresponds 1:1 to
  // the Application's LaunchBreakdown counters (which also count finals:
  // resets decrement them).
  auto config = TracedConfig();
  config.tracing.enabled = true;
  const auto result = RunExperiment(config);
  ASSERT_NE(result.trace, nullptr);
  const CriticalPathAnalyzer analyzer(result.trace->events());
  const LocalityMissHistogram& misses = analyzer.locality_misses();
  EXPECT_EQ(misses.local, static_cast<std::uint64_t>(result.launches_local));
  EXPECT_EQ(misses.covered_busy,
            static_cast<std::uint64_t>(result.launches_covered_busy));
  EXPECT_EQ(misses.uncovered + misses.uncovered_replica_lost,
            static_cast<std::uint64_t>(result.launches_uncovered));
  EXPECT_EQ(misses.uncovered_replica_lost, 0u);  // no failures injected
  EXPECT_GT(misses.total(), 0u);
}

TEST(CriticalPath, TablesRenderWithoutThrowing) {
  auto config = TracedConfig();
  config.tracing.enabled = true;
  const auto result = RunExperiment(config);
  const CriticalPathAnalyzer analyzer(result.trace->events());
  EXPECT_NE(analyzer.breakdown_table().find("jct (s)"), std::string::npos);
  EXPECT_NE(analyzer.summary_table().find("mean"), std::string::npos);
  EXPECT_NE(analyzer.locality_table().find("local"), std::string::npos);
}

// ---------- traced parallel sweeps -------------------------------------------

TEST(TracedSweep, ParallelMatchesSerialWithPerRunTracers) {
  std::vector<ExperimentConfig> grid;
  for (const std::uint64_t seed : {42ull, 43ull}) {
    for (const WorkloadKind kind :
         {WorkloadKind::kWordCount, WorkloadKind::kSort}) {
      ExperimentConfig config;
      config.num_nodes = 12;
      config.kinds = {kind};
      config.trace.num_apps = 2;
      config.trace.jobs_per_app = 3;
      config.seed = seed;
      config.tracing.enabled = true;
      grid.push_back(config);
    }
  }
  const auto serial = RunSweep(grid, {.threads = 1});
  const auto parallel = RunSweep(grid, {.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_NE(serial[i].trace, nullptr);
    ASSERT_NE(parallel[i].trace, nullptr);
    ExpectResultsBitIdentical(serial[i], parallel[i]);
    // Each run records into its own buffer; identical runs record the
    // same event stream.
    ASSERT_EQ(serial[i].trace->recorded(), parallel[i].trace->recorded());
    const auto a = serial[i].trace->events();
    const auto b = parallel[i].trace->events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t e = 0; e < a.size(); ++e) {
      EXPECT_DOUBLE_EQ(a[e].t0, b[e].t0);
      EXPECT_DOUBLE_EQ(a[e].t1, b[e].t1);
      EXPECT_EQ(a[e].kind, b[e].kind);
      EXPECT_EQ(a[e].app, b[e].app);
      EXPECT_EQ(a[e].id, b[e].id);
    }
  }
}

TEST(TracedSweep, RingDropAccountingSurvivesTinyCapacity) {
  ExperimentConfig config;
  config.num_nodes = 12;
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 3;
  config.tracing.enabled = true;
  config.tracing.capacity = 32;  // force wrap-around
  const auto result = RunExperiment(config);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_EQ(result.trace->size(), 32u);
  EXPECT_GT(result.trace->dropped(), 0u);
  EXPECT_EQ(result.trace->recorded(),
            result.trace->dropped() + result.trace->size());
  // The analyzer degrades gracefully on a truncated trace: any job whose
  // events survived still reconciles.
  const CriticalPathAnalyzer analyzer(result.trace->events());
  for (const JobBreakdown& job : analyzer.jobs()) {
    EXPECT_LT(std::abs(job.segment_sum() - job.jct()), 1e-9);
  }
}

}  // namespace
}  // namespace custody
