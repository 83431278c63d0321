// Closed-loop load generator for the crowd gateway.
//
// Self-hosts a CrowdGateway over a large synthetic QA campaign (or targets
// an already-running gateway via --port), then drives it from N concurrent
// connections. Each connection is one closed-loop client thread with its own
// CrowdClient and worker identity: request a HIT, answer every task in it,
// repeat — every wire round trip is timed individually. At the end the
// per-call latencies are merged and the harness reports throughput and
// p50/p95/p99, the numbers a capacity plan for a real AMT front-end needs.
//
//   ./build/bench/bench_server [--connections=N] [--reactors=N] [--ops=N]
//                              [--port=P] [--mode=mixed|warm] [--json=PATH]
//                              [--async] [--reinfer=N] [--kill-after-ops=N]
//
//   --connections  concurrent client connections (default 4)
//   --reactors     event-loop threads in the self-hosted gateway
//                  (default 1; ignored with --port)
//   --ops          wire calls per connection before it disconnects
//                  (default 2000; requests and submissions both count)
//   --port         target an external gateway instead of self-hosting
//                  (default 0 = self-host on an ephemeral port)
//   --mode         "mixed" (default): request a HIT, answer every task in
//                  it, repeat — the inference state keeps moving.
//                  "warm": RequestTasks only, no submissions — the system
//                  stays quiet, so repeat requests measure the warm
//                  benefit index's path end to end over the wire.
//   --async        self-hosted system runs in async-inference mode
//                  (DESIGN.md §15): SubmitAnswer enqueues to the background
//                  inference service, RequestTasks serves from the published
//                  snapshot. Ignored with --port.
//   --reinfer=N    full-EM cadence (DocsSystemOptions::reinfer_every) for
//                  the self-hosted system (default 0 = never). Nonzero makes
//                  the sync-vs-async latency gap visible: in sync mode every
//                  Nth answer runs EM under the state lock the serving path
//                  needs.
//   --json         also write the summary metrics as one JSON object to
//                  PATH (consumed by scripts/bench.sh).
//   --kill-after-ops  self-crash hook for the chaos harness: SIGKILL this
//                  process (no cleanup, no flush) once N wire calls have
//                  completed across all connections. 0 = disabled.
//
// Clients are ResilientCrowdClient instances, so a flaky or restarting
// gateway surfaces as retries/timeouts/reconnects (reported per connection
// and in --json) instead of aborted runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "client/resilient_client.h"
#include "common/table_printer.h"
#include "core/concurrent_docs_system.h"
#include "net/wire.h"
#include "server/crowd_gateway.h"

namespace {

size_t FlagValue(int argc, char** argv, const char* name, size_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return static_cast<size_t>(std::atoll(argv[i] + prefix.size()));
    }
  }
  return fallback;
}

std::string StringFlag(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool BoolFlag(int argc, char** argv, const char* name) {
  const std::string bare = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i] || bare + "=1" == argv[i]) return true;
  }
  return false;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  namespace core = docs::core;
  namespace benchutil = docs::benchutil;
  using docs::Status;
  using docs::TablePrinter;
  using Clock = std::chrono::steady_clock;

  const size_t connections = FlagValue(argc, argv, "connections", 4);
  const size_t reactors = FlagValue(argc, argv, "reactors", 1);
  const size_t ops_per_connection = FlagValue(argc, argv, "ops", 2000);
  uint16_t port = static_cast<uint16_t>(FlagValue(argc, argv, "port", 0));
  const std::string mode = StringFlag(argc, argv, "mode", "mixed");
  const std::string json_path = StringFlag(argc, argv, "json", "");
  const size_t kill_after_ops = FlagValue(argc, argv, "kill-after-ops", 0);
  const bool async_inference = BoolFlag(argc, argv, "async");
  const size_t reinfer_every = FlagValue(argc, argv, "reinfer", 0);
  if (mode != "mixed" && mode != "warm") {
    std::cerr << "unknown --mode=" << mode << " (expected mixed|warm)\n";
    return 1;
  }
  const bool warm_mode = mode == "warm";

  benchutil::PrintHeader(
      "gateway load generator",
      "closed-loop wire latency stays in the tens of microseconds on "
      "loopback; scaling is bounded by reactor count and shard contention");

  // Self-host unless --port points at an external gateway. The campaign is
  // large enough that the task pool never drains mid-run.
  const auto& synthetic = benchutil::SharedKb();
  auto dataset = docs::datasets::MakeQaDataset(synthetic, 4000, 7);
  core::DocsSystemOptions options;
  options.golden_count = 0;
  options.lease_duration = 1 << 30;  // leases never expire during the run
  options.reinfer_every = reinfer_every;
  options.async_inference = async_inference;
  core::ConcurrentDocsSystem system(&synthetic.knowledge_base, options);
  docs::server::CrowdGatewayOptions gateway_options;
  gateway_options.num_reactors = reactors;
  docs::server::CrowdGateway gateway(&system, gateway_options);
  if (port == 0) {
    std::vector<core::TaskInput> inputs;
    for (const auto& task : dataset.tasks) {
      inputs.push_back({task.text, task.num_choices()});
    }
    if (Status status = system.AddTasks(inputs); !status.ok()) {
      std::cerr << "AddTasks: " << status.ToString() << "\n";
      return 1;
    }
    if (Status status = gateway.Start(); !status.ok()) {
      std::cerr << "gateway start: " << status.ToString() << "\n";
      return 1;
    }
    port = gateway.port();
  }
  std::cout << "target: 127.0.0.1:" << port << "   connections: "
            << connections << "   reactors: " << reactors
            << "   ops/connection: " << ops_per_connection
            << "   mode: " << mode
            << "   inference: " << (async_inference ? "async" : "sync")
            << "   reinfer_every: " << reinfer_every << "\n\n";

  // Closed loop: each thread alternates RequestTasks(4) with submitting
  // every granted task, timing each wire call. In warm mode the submissions
  // are skipped — the quiet system serves every repeat request off the
  // warm benefit index. Latencies are kept per op type: the headline
  // question for async mode is what RequestTasks tail latency looks like
  // while SubmitAnswer keeps the inference state moving.
  std::vector<std::vector<double>> request_us(connections);
  std::vector<std::vector<double>> submit_us(connections);
  std::vector<size_t> errors(connections, 0);
  std::vector<docs::client::ResilientClientStats> client_stats(connections);
  std::atomic<size_t> global_ops{0};
  auto drive = [&](size_t c) {
    docs::client::ResilientClientOptions client_options;
    client_options.port = port;
    client_options.socket.recv_timeout_ms = 10000;
    client_options.socket.send_timeout_ms = 10000;
    client_options.nonce = 0x10ad0000 + c;  // reproducible id namespaces
    docs::client::ResilientCrowdClient client(client_options);
    const std::string worker = "load-" + std::to_string(c);
    request_us[c].reserve(ops_per_connection);
    submit_us[c].reserve(ops_per_connection);
    std::vector<uint64_t> hit;
    size_t next = 0;  // next unanswered task of the current HIT
    for (size_t op = 0; op < ops_per_connection; ++op) {
      const auto start = Clock::now();
      Status status = docs::OkStatus();
      bool was_request = false;
      if (warm_mode || next >= hit.size()) {
        hit.clear();
        next = 0;
        was_request = true;
        status = client.RequestTasks(worker, 4, &hit);
        if (status.ok() && hit.empty()) break;  // pool drained
      } else {
        status = client.SubmitAnswer(worker, hit[next], 0);
        ++next;
      }
      const auto stop = Clock::now();
      if (kill_after_ops > 0 &&
          global_ops.fetch_add(1) + 1 >= kill_after_ops) {
        // Chaos hook: die the way a crashed server process dies — no
        // destructors, no flushes. The harness watching us expects 137.
        std::raise(SIGKILL);
      }
      if (!status.ok()) {
        ++errors[c];
        continue;
      }
      (was_request ? request_us[c] : submit_us[c])
          .push_back(std::chrono::duration<double, std::micro>(stop - start)
                         .count());
    }
    client_stats[c] = client.stats();
  };

  const auto wall_start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) threads.emplace_back(drive, c);
  for (auto& thread : threads) thread.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  std::vector<double> merged;
  std::vector<double> requests;
  std::vector<double> submits;
  size_t total_errors = 0;
  docs::client::ResilientClientStats totals;
  for (size_t c = 0; c < connections; ++c) {
    requests.insert(requests.end(), request_us[c].begin(),
                    request_us[c].end());
    submits.insert(submits.end(), submit_us[c].begin(), submit_us[c].end());
    total_errors += errors[c];
    totals.retries += client_stats[c].retries;
    totals.timeouts += client_stats[c].timeouts;
    totals.reconnects += client_stats[c].reconnects;
    totals.duplicate_acks += client_stats[c].duplicate_acks;
  }
  merged.reserve(requests.size() + submits.size());
  merged.insert(merged.end(), requests.begin(), requests.end());
  merged.insert(merged.end(), submits.begin(), submits.end());
  std::sort(merged.begin(), merged.end());
  std::sort(requests.begin(), requests.end());
  std::sort(submits.begin(), submits.end());
  if (merged.empty()) {
    std::cerr << "no successful wire calls (" << total_errors
              << " errors)\n";
    return 1;
  }

  TablePrinter table({"metric", "value"});
  table.AddRow({"wire calls ok", std::to_string(merged.size())});
  table.AddRow({"errors", std::to_string(total_errors)});
  table.AddRow({"retries", std::to_string(totals.retries)});
  table.AddRow({"timeouts", std::to_string(totals.timeouts)});
  table.AddRow({"reconnects", std::to_string(totals.reconnects)});
  table.AddRow({"wall time (s)", TablePrinter::Fmt(wall_s, 3)});
  table.AddRow({"throughput (ops/s)",
                TablePrinter::Fmt(static_cast<double>(merged.size()) / wall_s,
                                  1)});
  table.AddRow({"p50 latency (us)",
                TablePrinter::Fmt(Percentile(merged, 0.50), 1)});
  table.AddRow({"p95 latency (us)",
                TablePrinter::Fmt(Percentile(merged, 0.95), 1)});
  table.AddRow({"p99 latency (us)",
                TablePrinter::Fmt(Percentile(merged, 0.99), 1)});
  table.AddRow({"p99.9 latency (us)",
                TablePrinter::Fmt(Percentile(merged, 0.999), 1)});
  if (!requests.empty()) {
    table.AddRow({"RequestTasks p50 (us)",
                  TablePrinter::Fmt(Percentile(requests, 0.50), 1)});
    table.AddRow({"RequestTasks p95 (us)",
                  TablePrinter::Fmt(Percentile(requests, 0.95), 1)});
    table.AddRow({"RequestTasks p99 (us)",
                  TablePrinter::Fmt(Percentile(requests, 0.99), 1)});
    table.AddRow({"RequestTasks p99.9 (us)",
                  TablePrinter::Fmt(Percentile(requests, 0.999), 1)});
  }
  if (!submits.empty()) {
    table.AddRow({"SubmitAnswer p50 (us)",
                  TablePrinter::Fmt(Percentile(submits, 0.50), 1)});
    table.AddRow({"SubmitAnswer p95 (us)",
                  TablePrinter::Fmt(Percentile(submits, 0.95), 1)});
    table.AddRow({"SubmitAnswer p99 (us)",
                  TablePrinter::Fmt(Percentile(submits, 0.99), 1)});
    table.AddRow({"SubmitAnswer p99.9 (us)",
                  TablePrinter::Fmt(Percentile(submits, 0.999), 1)});
  }
  table.Print(std::cout);

  if (totals.retries + totals.timeouts + totals.reconnects > 0) {
    std::cout << "\nper-connection resilience:\n";
    for (size_t c = 0; c < connections; ++c) {
      std::cout << "  conn " << c << ": " << client_stats[c].retries
                << " retries, " << client_stats[c].timeouts << " timeouts, "
                << client_stats[c].reconnects << " reconnects, "
                << client_stats[c].duplicate_acks << " duplicate acks, "
                << errors[c] << " errors\n";
    }
  }

  uint64_t scores_computed = 0;
  uint64_t request_hits = 0;
  uint64_t request_misses = 0;
  uint64_t index_pops = 0;
  uint64_t index_repairs = 0;
  uint64_t index_rebuilds = 0;
  uint64_t index_invalidations = 0;
  uint64_t async_epoch = 0;
  uint64_t async_publishes = 0;
  uint64_t async_pending = 0;
  uint64_t async_enqueue_waits = 0;
  double async_publish_gap_us = 0.0;
  if (gateway.running()) {
    if (async_inference) system.Drain();  // settle the queue before sampling
    const docs::server::GatewayStats stats = gateway.stats();
    scores_computed = stats.benefit_cache_misses;
    request_hits = stats.benefit_cache_request_hits;
    request_misses = stats.benefit_cache_request_misses;
    index_pops = stats.benefit_index_pops;
    index_repairs = stats.benefit_index_repairs;
    index_rebuilds = stats.benefit_index_rebuilds;
    index_invalidations = stats.benefit_index_generation_invalidations;
    async_epoch = stats.async_snapshot_epoch;
    async_publishes = stats.async_publishes;
    async_pending = stats.async_answers_pending;
    async_enqueue_waits = stats.async_enqueue_waits;
    async_publish_gap_us = stats.async_publish_gap_us;
    // Hit-rate at request granularity: a serving pass that computed no
    // score is a hit. Scores computed are volume, not a rate.
    const uint64_t request_total = request_hits + request_misses;
    const double hit_rate =
        request_total > 0
            ? static_cast<double>(request_hits) /
                  static_cast<double>(request_total)
            : 0.0;
    std::cout << "\ngateway: " << stats.requests_served << " served, "
              << stats.requests_shed << " shed, " << stats.protocol_errors
              << " protocol errors\n"
              << "benefit cache: " << TablePrinter::Fmt(hit_rate * 100.0, 1)
              << "% request hit-rate (" << request_hits << " hits / "
              << request_misses << " misses); " << scores_computed
              << " scores computed\n"
              << "benefit index: " << index_pops << " pops, " << index_repairs
              << " repairs, " << index_rebuilds << " rebuilds, "
              << index_invalidations << " generation invalidations\n";
    if (async_inference) {
      std::cout << "async inference: snapshot epoch " << async_epoch << ", "
                << async_publishes << " publishes, " << async_pending
                << " pending, " << async_enqueue_waits
                << " enqueue waits, last publish gap "
                << TablePrinter::Fmt(async_publish_gap_us, 1) << " us\n";
    }
    gateway.Stop();
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write --json=" << json_path << "\n";
      return 1;
    }
    out << "{\"bench\": \"bench_server\", \"mode\": \"" << mode
        << "\", \"inference\": \"" << (async_inference ? "async" : "sync")
        << "\", \"reinfer_every\": " << reinfer_every
        << ", \"connections\": " << connections
        << ", \"reactors\": " << reactors
        << ", \"ops_per_connection\": " << ops_per_connection
        << ", \"wire_calls_ok\": " << merged.size()
        << ", \"errors\": " << total_errors
        << ", \"retries\": " << totals.retries
        << ", \"timeouts\": " << totals.timeouts
        << ", \"reconnects\": " << totals.reconnects
        << ", \"duplicate_acks\": " << totals.duplicate_acks
        << ", \"retries_per_connection\": [";
    for (size_t c = 0; c < connections; ++c) {
      out << (c > 0 ? "," : "") << client_stats[c].retries;
    }
    out << "], \"reconnects_per_connection\": [";
    for (size_t c = 0; c < connections; ++c) {
      out << (c > 0 ? "," : "") << client_stats[c].reconnects;
    }
    out << "], \"timeouts_per_connection\": [";
    for (size_t c = 0; c < connections; ++c) {
      out << (c > 0 ? "," : "") << client_stats[c].timeouts;
    }
    out << "], \"wall_s\": " << wall_s
        << ", \"throughput_ops_s\": "
        << (static_cast<double>(merged.size()) / wall_s)
        << ", \"p50_us\": " << Percentile(merged, 0.50)
        << ", \"p95_us\": " << Percentile(merged, 0.95)
        << ", \"p99_us\": " << Percentile(merged, 0.99)
        << ", \"p999_us\": " << Percentile(merged, 0.999)
        << ", \"request_calls\": " << requests.size()
        << ", \"request_p50_us\": " << Percentile(requests, 0.50)
        << ", \"request_p95_us\": " << Percentile(requests, 0.95)
        << ", \"request_p99_us\": " << Percentile(requests, 0.99)
        << ", \"request_p999_us\": " << Percentile(requests, 0.999)
        << ", \"submit_calls\": " << submits.size()
        << ", \"submit_p50_us\": " << Percentile(submits, 0.50)
        << ", \"submit_p95_us\": " << Percentile(submits, 0.95)
        << ", \"submit_p99_us\": " << Percentile(submits, 0.99)
        << ", \"submit_p999_us\": " << Percentile(submits, 0.999)
        << ", \"async_snapshot_epoch\": " << async_epoch
        << ", \"async_publishes\": " << async_publishes
        << ", \"async_answers_pending\": " << async_pending
        << ", \"async_enqueue_waits\": " << async_enqueue_waits
        << ", \"async_publish_gap_us\": " << async_publish_gap_us
        << ", \"benefit_cache_row_misses\": " << scores_computed
        << ", \"benefit_cache_request_hits\": " << request_hits
        << ", \"benefit_cache_request_misses\": " << request_misses
        << ", \"benefit_cache_hit_rate\": "
        << (request_hits + request_misses > 0
                ? static_cast<double>(request_hits) /
                      static_cast<double>(request_hits + request_misses)
                : 0.0)
        << ", \"benefit_index_pops\": " << index_pops
        << ", \"benefit_index_repairs\": " << index_repairs
        << ", \"benefit_index_rebuilds\": " << index_rebuilds
        << ", \"benefit_index_generation_invalidations\": "
        << index_invalidations << "}\n";
  }
  return 0;
}
