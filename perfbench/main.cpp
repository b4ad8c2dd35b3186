// The repository benchmark: one workload per invocation.
//
//   perfbench --workload <steady-10k|spec-1k|paper-grid|whatif-service>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Human-readable lines (run context, outcome digest, every metric with its
// unit and sample count) come first; the last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set.  perfbench/run.py builds this binary and runs it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <steady-10k|spec-1k|paper-grid|"
               "whatif-service> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\n";
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  return options;
}

/// All digits a double carries, as JSON.
std::string Number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << '\n';
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  // Timings of a build with assertions on are not this program's speed.
  std::cerr << "perfbench: refusing to report from a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  const Options options = Parse(argc, argv);
  std::cout << "perfbench: workload " << options.workload << ", seed "
            << options.seed << ", " << options.seconds << " s, trace "
            << (options.trace ? 1 : 0) << '\n'
            << "context: nproc " << std::thread::hardware_concurrency()
            << ", build " << PERFBENCH_BUILD_TYPE << " (NDEBUG), compiler "
            << PERFBENCH_COMPILER << ", sweep threads "
            << perfbench::SweepThreads() << '\n'
            << std::flush;

  Report report;
  perfbench::SpanLog spans(options.trace);
  try {
    if (options.workload == "steady-10k") {
      perfbench::RunSteady10k(options, report, spans);
    } else if (options.workload == "spec-1k") {
      perfbench::RunSpec1k(options, report, spans);
    } else if (options.workload == "paper-grid") {
      perfbench::RunPaperGrid(options, report, spans);
    } else if (options.workload == "whatif-service") {
      perfbench::RunWhatifService(options, report, spans);
    } else {
      Usage("unknown workload " + options.workload);
    }
    if (options.trace) perfbench::FillMissingLayers(report);
    spans.write(options.spans_path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }

  for (const std::string& line : report.lines) std::cout << line << '\n';
  std::cout << "op_failure_ratio " << report.failed << "/" << report.attempted
            << '\n';
  for (const auto& [check, count] : report.failures) {
    std::cout << "  FAILED check " << check << ": " << count << '\n';
  }
  const std::vector<Metric>& metrics =
      options.trace ? report.per_layer : report.end_to_end;
  PrintMetrics(options.trace ? "per-layer metrics:" : "end-to-end metrics:",
               metrics);

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
