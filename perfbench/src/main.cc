// Serving benchmark for the DOCS crowd gateway.
//
//   docs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Self-hosts the gateway in-process and drives it over loopback TCP with
// closed-loop connections (a crowd worker waits for the HIT before
// answering it). With --trace 0 it measures the end-to-end metrics; with
// --trace 1 it runs the traced pass and the per-layer breakdown instead
// (layers.h). The last line of standard output is the JSON report.

#include <cstdlib>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/logging.h"
#include "deployment.h"
#include "layers.h"
#include "load.h"
#include "measure.h"

namespace perfbench {
namespace {

/// Taken during static initialization: set-up time runs from process start.
const Clock::time_point kProcessStart = Clock::now();

/// Set-up repetitions per run; setup_s reports their median.
constexpr size_t kSetupReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Run directories and span files, relative to the checkout root.
constexpr char kScratchDir[] = ".bench_build/run";
constexpr char kTraceDir[] = ".bench_build/traces";

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->seconds <= 0.0) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

void PrintReport(bool correct, size_t attempted, size_t failed,
                 const MetricSink& sink) {
  std::cout << sink.Table();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << sink.Json() << "}" << std::endl;
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args,
                const std::string& run_dir) {
  // Set up kSetupReps times; the last deployment serves. The first
  // repetition's clock runs from process start.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (deployment != nullptr && !deployment->Shutdown()) {
      std::cerr << "cannot remove " << deployment->durable_dir() << "\n";
      return 1;
    }
    deployment.reset();
    std::string error;
    const Clock::time_point start = rep == 0 ? kProcessStart : Clock::now();
    deployment =
        Deployment::Create(spec, args.seed, run_dir, start, nullptr, &error);
    if (deployment == nullptr) {
      std::cerr << "set-up failed: " << error << "\n";
      return 1;
    }
    setup_s.push_back(deployment->times().total_s);
  }

  LoadOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  const LoadResult load = DriveLoad(*deployment, options);
  ServingChecks checks = CheckServing(*deployment, load);
  const std::string durable_dir = deployment->durable_dir();
  if (!deployment->Shutdown()) {
    checks.Fail("durable directory " + durable_dir + " was not removed");
  }
  deployment.reset();

  MetricSink sink;
  sink.Add("throughput_ops_s",
           static_cast<double>(load.Completed()) / load.wall_s, "1/s",
           std::to_string(load.Completed()) + " calls in " +
               std::to_string(load.wall_s) + " s");
  const auto requests = load.Latencies(WireOp::Kind::kRequest);
  const auto submits = load.Latencies(WireOp::Kind::kSubmit);
  bool supported = true;
  supported &= sink.AddQuantile("request_p50_us",
                                QuantileOfUnsorted(requests, 0.50), 0.50, "us");
  supported &= sink.AddQuantile("submit_p50_us",
                                QuantileOfUnsorted(submits, 0.50), 0.50, "us");
  sink.Add("accuracy", checks.accuracy, "ratio",
           std::to_string(checks.accuracy_tasks) + " answered tasks");
  sink.Add("setup_s", Median(setup_s), "s",
           "median of " + std::to_string(setup_s.size()) + " set-ups");
  sink.Add("peak_rss_mb", PeakRssMb(), "MiB");
  if (!supported) {
    for (const auto& name : sink.unsupported()) {
      checks.Fail("unsupported percentile " + name);
    }
  }
  if (!checks.ok) std::cerr << "check failed: " << checks.problem << "\n";
  PrintReport(checks.ok, load.Attempted(), load.Failed(), sink);
  return 0;
}

int RunTraced(const WorkloadSpec& spec, const Args& args,
              const std::string& run_dir) {
  // One file per workload: the latest traced run's spans.
  const std::string trace_path =
      std::string(kTraceDir) + "/" + spec.name + ".tsv";
  LayerReport report =
      RunLayers(spec, args.seed, args.seconds, run_dir, trace_path);
  if (!report.error.empty()) {
    std::cerr << "traced run failed: " << report.error << "\n";
    return 1;
  }
  if (!report.ok) std::cerr << "check failed: " << report.problem << "\n";
  PrintReport(report.ok, report.attempted, report.failed, report.sink);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  docs::SetLogLevel(docs::LogLevel::kError);
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  const std::optional<WorkloadSpec> spec = FindWorkload(args.workload);
  if (!spec.has_value()) {
    std::cerr << "unknown workload '" << args.workload << "'; expected one of:";
    for (const auto& name : WorkloadNames()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  // Everything the run writes besides the spans lives in a directory of its
  // own, removed at exit.
  const std::string run_dir =
      std::string(kScratchDir) + "/" + std::to_string(getpid());
  if (!ResetDirectory(run_dir, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  const int code = args.trace ? RunTraced(*spec, args, run_dir)
                              : RunEndToEnd(*spec, args, run_dir);
  if (!RemoveDirectory(run_dir)) {
    std::cerr << "cannot remove " << run_dir << "\n";
    return 1;
  }
  return code;
}
