#include "load.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace perfbench {
namespace {

void Note(ConnectionLog& log, const std::string& problem) {
  if (log.first_problem.empty()) log.first_problem = problem;
}

/// One connection's closed loop. Runs until `deadline`; `go` releases every
/// connection at once after each has connected.
void RunConnection(Deployment& deployment, const LoadOptions& options,
                   size_t c, std::atomic<size_t>* ready,
                   std::atomic<bool>* go, Clock::time_point* start,
                   ConnectionLog* log) {
  const WorkloadSpec& spec = deployment.spec();
  const Campaign& campaign = deployment.campaign();
  const size_t num_tasks = campaign.dataset.tasks.size();

  docs::client::ResilientClientOptions client_options;
  client_options.port = deployment.gateway().port();
  client_options.socket.recv_timeout_ms = 10000;
  client_options.socket.send_timeout_ms = 10000;
  client_options.nonce = 0x9e37000000000000ull + (options.seed << 8) + c;
  docs::client::ResilientCrowdClient client(client_options);
  docs::net::StatsResp warmup;
  if (docs::Status status = client.Stats(&warmup); !status.ok()) {
    ++log->failed;
    Note(*log, "connect: " + status.ToString());
  }

  // This connection's share of the worker identities, each with the set of
  // tasks it has answered (the HIT contract forbids re-granting them).
  std::vector<uint32_t> owned;
  for (size_t w = c; w < campaign.workers.size(); w += kConnections) {
    owned.push_back(static_cast<uint32_t>(w));
  }
  std::vector<std::vector<uint8_t>> answered(owned.size());
  std::vector<uint8_t> in_hit(num_tasks, 0);
  docs::Rng rng(options.seed * 1000003 + c);
  if (options.trace) {
    log->spans = std::make_unique<SpanBuffer>(c);
    log->ops.reserve(1 << 16);
  }
  for (uint64_t kind = 0; kind < 2; ++kind) {
    log->latencies.emplace_back(options.seed * 1000003 + 2 * c + kind + 1);
  }
  log->answered_tasks.assign(num_tasks, 0);

  ready->fetch_add(1);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  const Clock::time_point t_start = *start;
  const auto deadline =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
  uint64_t sequence = 0;
  size_t session = 0;

  // Times and records one wire call; returns its status.
  auto call = [&](WireOp op, auto&& body) {
    op.traced = options.trace && session % 2 == 1;
    const auto t0 = Clock::now();
    op.request = (static_cast<uint64_t>(c) << 40) | ++sequence;
    docs::Status status;
    {
      ScopedSpan span(op.traced ? log->spans.get() : nullptr,
                      op.kind == WireOp::Kind::kRequest
                          ? "client.request_tasks"
                          : "client.submit_answer",
                      0, op.request);
      status = body();
    }
    const auto t1 = Clock::now();
    op.micros = MicrosSince(t0, t1);
    op.ok = status.ok();
    log->wire_us += op.micros;
    ++log->attempted;
    if (status.ok()) {
      const size_t kind = static_cast<size_t>(op.kind);
      ++log->completed[kind];
      log->latencies[kind].Add(op.micros);
    } else {
      ++log->failed;
      Note(*log, status.ToString());
    }
    if (options.trace) log->ops.push_back(op);
    return status;
  };

  std::vector<uint64_t> hit;
  for (; Clock::now() < deadline; ++session) {
    const size_t slot = session % owned.size();
    const uint32_t worker = owned[slot];
    const std::string id = WorkerId(worker);
    if (answered[slot].empty()) answered[slot].assign(num_tasks, 0);

    WireOp request;
    request.kind = WireOp::Kind::kRequest;
    request.worker = worker;
    hit.clear();
    docs::Status status = call(request, [&] {
      return client.RequestTasks(id, static_cast<uint32_t>(kHitSize), &hit);
    });
    if (!status.ok()) continue;
    if (options.trace) {  // the net pass re-encodes every recorded HIT
      WireOp& recorded = log->ops.back();
      recorded.hit_begin = static_cast<uint32_t>(log->hit_tasks.size());
      log->hit_tasks.insert(log->hit_tasks.end(), hit.begin(), hit.end());
      recorded.hit_end = static_cast<uint32_t>(log->hit_tasks.size());
    }

    // The HIT contract: at most k distinct tasks, none answered before by
    // this worker. A short or empty HIT is a failed operation.
    bool valid = hit.size() <= kHitSize;
    for (uint64_t task : hit) {
      if (task >= num_tasks || in_hit[task] || answered[slot][task]) {
        valid = false;
        break;
      }
      in_hit[task] = 1;
    }
    for (uint64_t task : hit) {
      if (task < num_tasks) in_hit[task] = 0;
    }
    if (!valid) {
      ++log->check_failures;
      Note(*log, "HIT for " + id + " breaks the HIT contract");
      continue;
    }
    if (hit.size() < kHitSize) {
      ++log->failed;
      Note(*log, "short HIT (" + std::to_string(hit.size()) + " of " +
                     std::to_string(kHitSize) + ") for " + id);
      if (hit.empty()) continue;
    }

    std::vector<uint64_t> to_answer;
    if (!spec.browse) {
      to_answer = hit;
    } else if (rng.Bernoulli(kBrowseAnswerShare)) {
      to_answer.push_back(hit[rng.UniformInt(hit.size())]);
    }
    for (uint64_t task : to_answer) {
      if (Clock::now() >= deadline) break;
      const auto& spec_task = campaign.dataset.tasks[task];
      WireOp submit;
      submit.kind = WireOp::Kind::kSubmit;
      submit.worker = worker;
      submit.task = static_cast<uint32_t>(task);
      submit.choice = static_cast<uint32_t>(crowd::GenerateAnswer(
          campaign.workers[worker], spec_task.true_domain, spec_task.truth,
          spec_task.num_choices(), rng));
      if (call(submit, [&] {
            return client.SubmitAnswer(id, submit.task, submit.choice);
          }).ok()) {
        answered[slot][task] = 1;
        log->answered_tasks[task] = 1;
      }
    }
  }
  log->loop_s = SecondsSince(t_start, Clock::now());
  log->client = client.stats();
}

}  // namespace

LoadResult DriveLoad(Deployment& deployment, const LoadOptions& options) {
  LoadResult result;
  const size_t n = kConnections;
  result.connections.resize(n);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back(RunConnection, std::ref(deployment),
                         std::cref(options), c, &ready, &go, &start,
                         &result.connections[c]);
  }
  while (ready.load() < n) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  result.wall_s = SecondsSince(start, Clock::now());
  return result;
}

void LatencySample::Add(double micros) {
  // Algorithm R: the i-th value replaces a random slot with probability
  // kCapacity / i once the reservoir is full.
  ++added_;
  if (added_ <= kCapacity) {
    values_[added_ - 1] = micros;
  } else if (const uint64_t slot = rng_.UniformInt(added_); slot < kCapacity) {
    values_[slot] = micros;
  }
}

std::vector<double> LatencySample::values() const {
  return {values_.begin(),
          values_.begin() + static_cast<ptrdiff_t>(std::min(added_, kCapacity))};
}

size_t LoadResult::Attempted() const {
  size_t total = 0;
  for (const auto& c : connections) total += c.attempted;
  return total;
}

size_t LoadResult::Failed() const {
  size_t total = 0;
  for (const auto& c : connections) total += c.failed + c.check_failures;
  return total;
}

size_t LoadResult::CheckFailures() const {
  size_t total = 0;
  for (const auto& c : connections) total += c.check_failures;
  return total;
}

size_t LoadResult::Completed() const {
  return Completed(WireOp::Kind::kRequest) + Completed(WireOp::Kind::kSubmit);
}

size_t LoadResult::Completed(WireOp::Kind kind) const {
  size_t total = 0;
  for (const auto& c : connections) {
    total += c.completed[static_cast<size_t>(kind)];
  }
  return total;
}

std::vector<double> LoadResult::Latencies(WireOp::Kind kind,
                                          Sessions sessions) const {
  std::vector<double> out;
  for (const auto& c : connections) {
    if (sessions == Sessions::kAll) {
      if (c.latencies.empty()) continue;  // the connection never started
      const std::vector<double> sample =
          c.latencies[static_cast<size_t>(kind)].values();
      out.insert(out.end(), sample.begin(), sample.end());
      continue;
    }
    for (const WireOp& op : c.ops) {
      if (op.ok && op.kind == kind &&
          op.traced == (sessions == Sessions::kTraced)) {
        out.push_back(op.micros);
      }
    }
  }
  return out;
}

size_t LoadResult::AckedAnswers() const {
  return Completed(WireOp::Kind::kSubmit);
}

std::vector<uint8_t> LoadResult::AnsweredTasks(size_t num_tasks) const {
  std::vector<uint8_t> answered(num_tasks, 0);
  for (const auto& c : connections) {
    for (size_t t = 0; t < c.answered_tasks.size() && t < num_tasks; ++t) {
      answered[t] |= c.answered_tasks[t];
    }
  }
  return answered;
}

double LoadResult::GeneratorShare() const {
  double wire_us = 0.0;
  double loop_us = 0.0;
  for (const auto& c : connections) {
    wire_us += c.wire_us;
    loop_us += c.loop_s * 1e6;
  }
  return loop_us > 0.0 ? 1.0 - wire_us / loop_us : 0.0;
}

double LoadResult::TraceOverhead() const {
  double traced_us = 0.0;
  double untraced_us = 0.0;
  for (WireOp::Kind kind : {WireOp::Kind::kRequest, WireOp::Kind::kSubmit}) {
    const auto traced = Latencies(kind, Sessions::kTraced);
    const auto untraced = Latencies(kind, Sessions::kUntraced);
    if (traced.empty() || untraced.empty()) continue;
    const double n = static_cast<double>(Completed(kind));
    traced_us += n * Median(traced);
    untraced_us += n * Median(untraced);
  }
  return traced_us > 0.0 ? 1.0 - untraced_us / traced_us : 0.0;
}

ServingChecks CheckServing(Deployment& deployment, const LoadResult& load) {
  ServingChecks checks;
  core::ConcurrentDocsSystem& system = deployment.system();
  const auto t0 = Clock::now();
  system.Drain();
  checks.drain_ms = MicrosSince(t0, Clock::now()) / 1000.0;
  checks.stats = deployment.gateway().stats();

  if (load.CheckFailures() > 0) {
    checks.Fail(std::to_string(load.CheckFailures()) +
                " HITs broke the HIT contract: " + load.FirstProblem());
  }
  const size_t acked = load.AckedAnswers();
  const size_t applied = system.num_answers();
  if (applied != acked) {
    checks.Fail("num_answers() = " + std::to_string(applied) +
                " after Drain, " + std::to_string(acked) +
                " answers acknowledged");
  }
  if (checks.stats.requests_shed != 0 || checks.stats.protocol_errors != 0) {
    checks.Fail(std::to_string(checks.stats.requests_shed) + " shed, " +
                std::to_string(checks.stats.protocol_errors) +
                " protocol errors");
  }

  // Accuracy over the answered non-golden tasks: the inferred choice against
  // the dataset truth.
  const auto& tasks = deployment.campaign().dataset.tasks;
  std::vector<uint8_t> answered = load.AnsweredTasks(tasks.size());
  system.WithLocked([&](core::DocsSystem& s) {
    for (size_t golden : s.golden_tasks()) answered[golden] = 0;
    return 0;
  });
  const std::vector<size_t> inferred = system.InferredChoices();
  size_t correct = 0;
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (!answered[t]) continue;
    ++checks.accuracy_tasks;
    correct += inferred[t] == tasks[t].truth;
  }
  if (checks.accuracy_tasks == 0) {
    checks.Fail("no answered task to score accuracy on");
  } else {
    checks.accuracy = static_cast<double>(correct) /
                      static_cast<double>(checks.accuracy_tasks);
  }
  return checks;
}

std::string LoadResult::FirstProblem() const {
  for (const auto& c : connections) {
    if (!c.first_problem.empty()) return c.first_problem;
  }
  return "";
}

}  // namespace perfbench
