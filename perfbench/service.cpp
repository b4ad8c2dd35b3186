// whatif-service: the in-process control plane (svc::ControlPlane) on
// loopback under a closed loop of two clients.
//
//   client A  drives a 1k-node steady-state Custody session: advance by a
//             window, fork with a node-failure or arrival-rate perturbation
//             at a fixed horizon, read the session status.
//   client B  submits small paper-scale experiments, polls each until done,
//             fetches its result (/experiments/:id/metrics), deletes it.
//
// Server threads: 2 HTTP workers + 1 experiment runner; with the two
// clients that keeps the busy threads within 4 CPUs.  Every result client B
// fetches must equal a direct RunOnSnapshot of the same config.
#include <string>
#include <thread>

#include "bench.h"
#include "common/json.h"
#include "svc/http.h"
#include "svc/json_api.h"
#include "svc/server.h"

namespace perfbench {

namespace {

using custody::JsonReader;
using custody::JsonValue;
using custody::workload::ExperimentConfig;
using custody::workload::ExperimentResult;
using custody::workload::ManagerKind;
using custody::workload::SubstrateSnapshot;
using custody::workload::WorkloadKind;

constexpr double kAdvanceWindow = 4.0;  ///< simulated seconds per advance
constexpr double kForkHorizon = 4.0;    ///< simulated seconds per fork
constexpr int kSessionNodes = 1000;
constexpr int kSlices = 4;  ///< load slices; jobs/s is the median slice's

ExperimentConfig SessionConfig(std::uint64_t seed) {
  ExperimentConfig config;
  config.num_nodes = kSessionNodes;
  config.executors_per_node = 2;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = 1000000;  // never drains within a run
  config.trace.mean_interarrival = 1.6;
  config.steady.enabled = true;
  config.steady.retire_jobs = true;
  config.steady.streaming_metrics = true;
  config.steady.warmup = 80.0;
  config.manager = ManagerKind::kCustody;
  config.seed = seed;
  return config;
}

/// Client B's experiments, cycled: paper scale, each manager on four
/// inputs of their own.
std::vector<ExperimentConfig> ExperimentConfigs(std::uint64_t seed) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t input = 0; input < 4; ++input) {
    for (const ManagerKind manager :
         {ManagerKind::kStandalone, ManagerKind::kOffer, ManagerKind::kPool,
          ManagerKind::kCustody}) {
      ExperimentConfig config;
      config.num_nodes = 25;
      config.executors_per_node = 2;
      config.kinds = {WorkloadKind::kWordCount};
      config.trace.num_apps = 4;
      config.trace.jobs_per_app = 15;
      config.manager = manager;
      config.seed = SubSeed(seed, input);
      configs.push_back(config);
    }
  }
  return configs;
}

/// One client's view of its requests.
struct ClientLog {
  std::vector<double> fork_s;
  std::vector<double> fork_direct_s;
  std::vector<double> json_encode_s;
  std::vector<double> poll_s;
  std::uint64_t requests = 0;
  std::uint64_t unexpected = 0;     ///< non-2xx, or an unknown job state
  std::uint64_t busy_409 = 0;
  std::uint64_t mismatched = 0;     ///< HTTP result != direct result
  std::uint64_t jobs = 0;           ///< simulated jobs the requests ran
  std::string first_error;
};

class Client {
 public:
  Client(std::uint16_t port, SpanLog& spans, ClientLog& log)
      : port_(port), spans_(spans), log_(log) {}

  /// One request; non-2xx statuses are recorded as unexpected.
  custody::svc::ClientResponse call(const char* span, const std::string& method,
                                    const std::string& target,
                                    const std::string& body,
                                    std::vector<double>* latency) {
    const Clock::time_point start = Clock::now();
    custody::svc::ClientResponse response;
    {
      SpanLog::Scope scope(spans_, span);
      response = custody::svc::Fetch(port_, method, target, body);
    }
    if (latency != nullptr) latency->push_back(SecondsSince(start));
    ++log_.requests;
    if (response.status == 409) ++log_.busy_409;
    if (response.status < 200 || response.status > 299) {
      ++log_.unexpected;
      if (log_.first_error.empty()) {
        log_.first_error = method + " " + target + " -> " +
                           std::to_string(response.status) + " " +
                           response.body.substr(0, 200);
      }
    }
    return response;
  }

 private:
  std::uint16_t port_;
  SpanLog& spans_;
  ClientLog& log_;
};

double JobsCompleted(const JsonValue& result) {
  const JsonValue* v = result.find("jobs_completed");
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// Client A: advance, fork, status — until the deadline.  With `direct`,
/// each HTTP fork is followed by the same fork called on SessionService
/// without HTTP, and its report encoded to JSON (svc.* per-layer metrics).
struct SessionCursor {
  int iteration = 0;
  double until = 0.0;        ///< the session's boundary
  double parent_jobs = 0.0;  ///< the session's completed jobs
};

void RunSessionClient(std::uint16_t port, std::uint64_t session,
                      Clock::time_point deadline, SpanLog& spans,
                      custody::svc::SessionService* direct,
                      SessionCursor& cursor, ClientLog& log) {
  Client client(port, spans, log);
  const std::string base = "/sessions/" + std::to_string(session);
  double& until = cursor.until;
  double& parent_jobs = cursor.parent_jobs;
  for (; Clock::now() < deadline; ++cursor.iteration) {
    const int i = cursor.iteration;
    until += kAdvanceWindow;
    const auto advanced = client.call(
        "svc.http advance", "POST", base + "/advance",
        "{\"until\":" + custody::svc::JsonNumber(until) + "}", nullptr);
    if (advanced.status == 200) {
      const JsonValue status = JsonReader::Parse(advanced.body);
      const double now_jobs =
          status.find("progress")->find("jobs_completed")->as_number();
      log.jobs += static_cast<std::uint64_t>(now_jobs - parent_jobs);
      parent_jobs = now_jobs;
    }
    custody::svc::Perturbation perturbation;
    std::string perturb;
    if (i % 2 == 0) {
      const int node = (i * 7919) % kSessionNodes;
      perturbation.kind = custody::svc::Perturbation::Kind::kNodeFailure;
      perturbation.node = custody::NodeId(static_cast<std::uint32_t>(node));
      perturb = "{\"kind\":\"node_failure\",\"node\":" + std::to_string(node) +
                "}";
    } else {
      perturbation.kind = custody::svc::Perturbation::Kind::kArrivalRate;
      perturbation.factor = 1.5;
      perturb = "{\"kind\":\"arrival_rate\",\"factor\":1.5}";
    }
    const auto forked = client.call(
        "svc.http fork", "POST", base + "/fork",
        "{\"perturb\":" + perturb +
            ",\"horizon\":" + custody::svc::JsonNumber(kForkHorizon) + "}",
        &log.fork_s);
    if (forked.status == 200) {
      const JsonValue report = JsonReader::Parse(forked.body);
      const double twins = JobsCompleted(*report.find("base")) +
                           JobsCompleted(*report.find("whatif")) -
                           2.0 * parent_jobs;
      log.jobs += static_cast<std::uint64_t>(std::max(0.0, twins));
    }
    if (direct != nullptr) {
      Clock::time_point start = Clock::now();
      custody::svc::ForkReport report;
      {
        SpanLog::Scope scope(spans, "svc.SessionService::fork");
        report = direct->fork(session, perturbation, kForkHorizon);
      }
      log.fork_direct_s.push_back(SecondsSince(start));
      start = Clock::now();
      {
        SpanLog::Scope scope(spans, "svc.json_api ResultToJson");
        const std::string encoded = custody::svc::ResultToJson(report.base) +
                                    custody::svc::ResultToJson(report.whatif);
        if (encoded.empty()) ++log.unexpected;
      }
      log.json_encode_s.push_back(SecondsSince(start));
    }
    client.call("svc.http status", "GET", base, "", &log.poll_s);
  }
}

/// Client B: submit, poll until done, fetch the result, delete — until the
/// deadline.  Each fetched result must equal the direct run's.
void RunExperimentClient(std::uint16_t port,
                         const std::vector<ExperimentConfig>& configs,
                         const std::vector<std::string>& expected,
                         Clock::time_point deadline, SpanLog& spans,
                         std::size_t& cursor, ClientLog& log) {
  Client client(port, spans, log);
  for (; Clock::now() < deadline; ++cursor) {
    const std::size_t which = cursor % configs.size();
    const auto submitted =
        client.call("svc.http submit", "POST", "/experiments",
                    custody::svc::ConfigToJson(configs[which]), nullptr);
    if (submitted.status != 202) return;
    const std::string target =
        "/experiments/" +
        std::to_string(static_cast<std::uint64_t>(
            JsonReader::Parse(submitted.body).find("id")->as_number()));
    for (;;) {
      const auto polled =
          client.call("svc.http poll", "GET", target, "", &log.poll_s);
      if (polled.status != 200) return;
      const std::string state =
          JsonReader::Parse(polled.body).find("state")->as_string();
      if (state == "done") break;
      if (state != "queued" && state != "running") {
        ++log.unexpected;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto metrics =
        client.call("svc.http metrics", "GET", target + "/metrics", "", nullptr);
    if (metrics.body != expected[which] + "\n") ++log.mismatched;
    log.jobs += static_cast<std::uint64_t>(
        configs[which].trace.num_apps * configs[which].trace.jobs_per_app);
    client.call("svc.http delete", "DELETE", target, "", nullptr);
  }
}

}  // namespace

void RunWhatifService(const Options& options, Report& report, SpanLog& spans) {
  // Expected results of client B's experiments, computed directly.
  const std::vector<ExperimentConfig> experiments =
      ExperimentConfigs(options.seed);
  std::vector<std::string> expected;
  Outcome outcome;
  for (const ExperimentConfig& config : experiments) {
    const ExperimentResult result = custody::workload::RunOnSnapshot(
        SubstrateSnapshot::Build(config), config.manager);
    expected.push_back(custody::svc::ResultToJson(result));
    outcome.add(result);
  }
  report.lines.push_back("outcome whatif-service experiments: " +
                         outcome.describe());

  custody::svc::ServerOptions server;
  server.http_workers = 2;
  server.runners = 1;
  custody::svc::ControlPlane plane(server);
  plane.start();
  const std::uint16_t port = plane.port();

  // setup_s: opening a 1k-node session over HTTP (substrate build + LiveRun
  // construction + request), several times; the last one stays open.
  ClientLog setup_log;
  Client setup_client(port, spans, setup_log);
  const std::string session_body =
      custody::svc::ConfigToJson(SessionConfig(options.seed));
  std::vector<double> setup;
  std::uint64_t session = 0;
  for (int i = 0; i < 15; ++i) {
    if (session != 0) {
      setup_client.call("svc.http close", "DELETE",
                        "/sessions/" + std::to_string(session), "", nullptr);
    }
    const auto created = setup_client.call("svc.http create", "POST",
                                           "/sessions", session_body, &setup);
    if (created.status != 201) break;
    session = static_cast<std::uint64_t>(
        JsonReader::Parse(created.body).find("id")->as_number());
  }

  // The load runs in slices, and jobs/s is the median slice's: one slow
  // moment on a shared machine moves it little.
  ClientLog a;
  ClientLog b;
  SessionCursor session_cursor;
  std::size_t experiment_cursor = 0;
  std::vector<double> slice_jobs_per_s;
  double wall = 0.0;
  for (int slice = 0; slice < kSlices && session != 0; ++slice) {
    const std::uint64_t jobs_before = a.jobs + b.jobs;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds / kSlices));
    std::thread session_client([&] {
      RunSessionClient(port, session, deadline, spans,
                       options.trace ? &plane.sessions() : nullptr,
                       session_cursor, a);
    });
    std::thread experiment_client([&] {
      RunExperimentClient(port, experiments, expected, deadline, spans,
                          experiment_cursor, b);
    });
    session_client.join();
    experiment_client.join();
    const double slice_wall = SecondsSince(start);
    wall += slice_wall;
    slice_jobs_per_s.push_back(
        static_cast<double>(a.jobs + b.jobs - jobs_before) / slice_wall);
  }

  // Every request is an operation; non-2xx answers and results that differ
  // from the direct run fail it.
  for (const ClientLog* log : {&setup_log, &a, &b}) {
    for (std::uint64_t i = 0; i < log->requests; ++i) {
      report.op(i >= log->unexpected, "svc-unexpected-non-2xx");
    }
    if (!log->first_error.empty()) {
      report.lines.push_back("first unexpected response: " + log->first_error);
    }
  }
  report.op(session != 0 && b.requests > 0 && b.mismatched == 0,
            "svc-http-result-equals-direct");
  for (std::uint64_t i = 1; i < b.mismatched; ++i) {
    report.op(false, "svc-http-result-equals-direct");
  }

  const std::uint64_t requests = a.requests + b.requests;
  std::vector<double> polls = a.poll_s;
  polls.insert(polls.end(), b.poll_s.begin(), b.poll_s.end());
  const auto ms = [](double s) { return s * 1e3; };
  const std::string forks = std::to_string(a.fork_s.size()) + " forks";
  const std::string poll_n = std::to_string(polls.size()) + " polls";
  const double req_per_s = static_cast<double>(requests) / wall;
  const double fork_p50 = ms(Quantile(a.fork_s, 0.5));
  report.lines.push_back(
      "svc: " + std::to_string(requests) + " requests in " +
      std::to_string(wall) + " s; " + forks + ", " + poll_n + ", " +
      std::to_string(b.requests) + " experiment-client requests");
  if (!options.trace) {
    report.e2e("jobs_per_s", Median(slice_jobs_per_s), "1/s",
               "median of " + std::to_string(slice_jobs_per_s.size()) +
                   " slices, " + std::to_string(a.jobs + b.jobs) +
                   " simulated jobs");
    report.e2e("setup_s", Median(setup), "s",
               "median of " + std::to_string(setup.size()) + " session opens");
    report.e2e("peak_rss_mb", PeakRssMb(), "MB", "process peak");
  }
  // The service's client-side figures: per-layer metrics of a traced run,
  // printed beside the end-to-end set otherwise.
  const std::vector<Metric> client_side = {
      {"svc.req_per_s", req_per_s, "1/s",
       std::to_string(requests) + " requests"},
      {"svc.fork_p50_ms", fork_p50, "ms", forks},
      {"svc.fork_p99_ms", ms(Quantile(a.fork_s, 0.99)), "ms", forks},
      {"svc.poll_p50_ms", ms(Quantile(polls, 0.5)), "ms", poll_n},
      {"svc.poll_p99_ms", ms(Quantile(polls, 0.99)), "ms", poll_n},
      {"svc.busy_409_ratio",
       requests > 0 ? static_cast<double>(a.busy_409 + b.busy_409) /
                          static_cast<double>(requests)
                    : 0.0,
       "ratio", std::to_string(a.busy_409 + b.busy_409) + " answered 409"}};
  if (!options.trace) {
    for (const Metric& m : client_side) {
      report.lines.push_back("client " + m.name.substr(4) + " = " +
                             std::to_string(m.value) + " " + m.unit + " (" +
                             m.note + ")");
    }
    plane.stop();
    return;
  }
  for (const Metric& m : client_side) report.per_layer.push_back(m);

  // --- per-layer (traced run) ---------------------------------------------
  const double direct_p50 = ms(Median(a.fork_direct_s));
  report.layer("svc.fork_direct_ms", direct_p50, "ms",
               std::to_string(a.fork_direct_s.size()) + " direct forks");
  report.layer("svc.http_overhead_ms", fork_p50 - direct_p50, "ms",
               "fork_p50_ms - fork_direct_ms");
  report.layer("svc.json_encode_ms", ms(Median(a.json_encode_s)), "ms",
               "base + what-if results");
  // The ledger of one fork's twins, twice from the same boundary.
  custody::svc::Perturbation none;
  const custody::svc::ForkReport first =
      plane.sessions().fork(session, none, kForkHorizon);
  const custody::svc::ForkReport second =
      plane.sessions().fork(session, none, kForkHorizon);
  Ledger l1;
  Ledger l2;
  l1.add(first.base);
  l2.add(second.base);
  CheckExactRepeat(report, l1, l2);
  AddLedgerMetrics(report, l1, 0.0);
  plane.stop();

  const ExperimentConfig config = SessionConfig(options.seed);
  std::vector<double> build;
  std::vector<double> ctor;
  for (int i = 0; i < 3; ++i) {
    Clock::time_point t = Clock::now();
    const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
    build.push_back(SecondsSince(t));
    t = Clock::now();
    const custody::workload::LiveRun run(snapshot, config.manager);
    ctor.push_back(SecondsSince(t));
  }
  report.layer("workload.snapshot_build_s", Median(build), "s");
  report.layer("workload.liverun_ctor_s", Median(ctor), "s");
  const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
  MeasureContextBuild(snapshot, 3, report, spans);
  MeasureSnapshotCodec(snapshot, config.manager, 200.0, report, spans);
}

}  // namespace perfbench
