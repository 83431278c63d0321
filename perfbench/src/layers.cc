#include "layers.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <tuple>

#include "core/golden_selection.h"
#include "load.h"
#include "net/wire.h"
#include "nlp/entity_linker.h"
#include "storage/answer_wal.h"

namespace perfbench {
namespace {

namespace net = docs::net;
using docs::Status;

/// Caps on the standalone passes, so they stay a small share of the run.
constexpr size_t kNetPassOps = 20000;
constexpr size_t kWalPassAnswers = 4000;
constexpr size_t kDurablePassAnswers = 3000;
constexpr size_t kLinkPassTasks = 1000;
constexpr size_t kScorePassWorkers = 5;
constexpr size_t kRepeats = 3;

/// Span slots: one per wire connection (0..), one per replay thread
/// (kReplaySlot..), one for everything on the main thread.
constexpr uint64_t kReplaySlot = 16;
constexpr uint64_t kMainSlot = 63;

double P50(const std::vector<double>& v) {
  return QuantileOfUnsorted(v, 0.5).value;
}

// --- 3. in-process replay -------------------------------------------------

struct ReplayResult {
  std::vector<double> request_us;
  std::vector<double> submit_us;
  /// Sync submits whose completion crossed a multiple of z (the EM
  /// trigger), or standalone full-inference passes.
  std::vector<double> em_pass_us;
  std::vector<double> ns_per_score;
  std::vector<double> checkpoint_ms;
  std::vector<double> golden_select_ms;
  size_t failures = 0;
  std::string problem;
  std::vector<std::unique_ptr<SpanBuffer>> spans;
};

/// A facade restored from the pre-traffic checkpoint `c0`, behind a
/// durable layer in `dir` when `durable`. Restoring skips DVE, so the
/// replay pays for nothing the wire pass did not.
struct Restored {
  std::unique_ptr<core::ConcurrentDocsSystem> facade;
  std::unique_ptr<core::DurableDocsSystem> durable;
  std::string dir;

  ~Restored() {
    durable.reset();
    facade.reset();
    if (!dir.empty()) RemoveDirectory(dir);
  }
};

bool Restore(const kb::SyntheticKb& kb, const core::DocsSystemOptions& options,
             const std::string& c0, bool durable, const std::string& dir,
             Restored* out, std::string* error) {
  out->facade =
      std::make_unique<core::ConcurrentDocsSystem>(&kb.knowledge_base, options);
  if (!durable) {
    Status status = out->facade->LoadCheckpoint(c0);
    if (!status.ok()) *error = "LoadCheckpoint: " + status.ToString();
    return status.ok();
  }
  out->dir = dir;
  if (!ResetDirectory(dir, error)) return false;
  core::DurableOptions durable_options;
  durable_options.dir = dir;
  durable_options.checkpoint_every = kCheckpointEvery;
  out->durable = std::make_unique<core::DurableDocsSystem>(out->facade.get(),
                                                           durable_options);
  std::error_code ec;
  std::filesystem::copy_file(c0, out->durable->checkpoint_path(), ec);
  if (ec) {
    *error = "copy checkpoint: " + ec.message();
    return false;
  }
  Status status = out->durable->Recover();
  if (!status.ok()) *error = "Recover: " + status.ToString();
  return status.ok();
}

ReplayResult Replay(const WorkloadSpec& spec, const kb::SyntheticKb& kb,
                    const std::string& c0, const LoadResult& load,
                    const std::string& dir, SpanBuffer* main_spans,
                    std::string* error) {
  ReplayResult result;
  Restored restored;
  {
    ScopedSpan span(main_spans, "bench.replay_restore");
    if (!Restore(kb, SystemOptions(spec), c0, spec.durable, dir, &restored,
                 error)) {
      return result;
    }
  }
  core::ConcurrentDocsSystem& facade = *restored.facade;
  core::DurableDocsSystem* durable = restored.durable.get();

  const size_t n = load.connections.size();
  std::vector<std::vector<double>> request_us(n), submit_us(n), em_us(n);
  std::vector<size_t> failures(n, 0);
  std::atomic<size_t> submits_done{0};
  std::atomic<size_t> submits_ok{0};
  result.spans.resize(n);
  {  // One thread per connection, each replaying its own op stream.
    ScopedSpan replay_span(main_spans, "bench.replay");
    const uint64_t parent = replay_span.id();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      result.spans[c] = std::make_unique<SpanBuffer>(kReplaySlot + c);
      threads.emplace_back([&, c] {
        SpanBuffer* spans = result.spans[c].get();
        std::vector<size_t> tasks;
        for (const WireOp& op : load.connections[c].ops) {
          if (!op.ok) continue;
          const std::string id = WorkerId(op.worker);
          const auto t0 = Clock::now();
          if (op.kind == WireOp::Kind::kRequest) {
            {
              ScopedSpan span(spans,
                              durable ? "durable.request_tasks"
                                      : "core.request_tasks",
                              parent, op.request);
              if (durable != nullptr) {
                tasks.clear();
                if (!durable->RequestTasks(id, kHitSize, &tasks).ok()) {
                  tasks.clear();
                }
              } else {
                tasks = facade.RequestTasks(id, kHitSize);
              }
            }
            request_us[c].push_back(MicrosSince(t0, Clock::now()));
            failures[c] += tasks.empty();
          } else {
            Status status;
            {
              ScopedSpan span(spans,
                              durable ? "durable.submit_answer"
                                      : "core.submit_answer",
                              parent, op.request);
              status = durable != nullptr
                           ? durable->SubmitAnswer(id, op.task, op.choice,
                                                   op.request)
                           : facade.SubmitAnswer(id, op.task, op.choice);
            }
            const double us = MicrosSince(t0, Clock::now());
            submit_us[c].push_back(us);
            const size_t done = submits_done.fetch_add(1) + 1;
            if (spec.reinfer_every > 0 && done % spec.reinfer_every == 0) {
              em_us[c].push_back(us);
            }
            if (status.ok()) {
              submits_ok.fetch_add(1);
            } else {
              ++failures[c];
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  facade.Drain();
  for (size_t c = 0; c < n; ++c) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.request_us, request_us[c]);
    append(result.submit_us, submit_us[c]);
    append(result.em_pass_us, em_us[c]);
    result.failures += failures[c];
  }
  if (result.failures > 0) {
    result.problem = std::to_string(result.failures) +
                     " replayed calls failed or returned an empty HIT";
  } else if (facade.num_answers() != submits_ok.load()) {
    result.problem = "replay: num_answers() = " +
                     std::to_string(facade.num_answers()) + ", " +
                     std::to_string(submits_ok.load()) + " submits accepted";
  }

  // Cold scoring: every task scored from live inference state, bypassing
  // the benefit cache, for the first few registered workers.
  facade.WithLocked([&](core::DocsSystem& system) {
    ScopedSpan pass(main_spans, "ota.score_all_pass");
    const size_t workers =
        std::min(kScorePassWorkers, system.WorkerIds().size());
    for (size_t w = 0; w < workers; ++w) {
      ScopedSpan span(main_spans, "ota.score_all", pass.id());
      const auto t0 = Clock::now();
      const std::vector<double> scores = system.ScoreAllTasks(w, true);
      result.ns_per_score.push_back(MicrosSince(t0, Clock::now()) * 1000.0 /
                                    static_cast<double>(scores.size()));
    }
    ScopedSpan golden(main_spans, "core.golden_select_pass");
    for (size_t r = 0; r < kRepeats; ++r) {
      ScopedSpan span(main_spans, "core.golden_select", golden.id());
      const auto t0 = Clock::now();
      const auto selected = core::SelectGoldenTasks(
          system.tasks(), SystemOptions(spec).golden_count);
      result.golden_select_ms.push_back(MicrosSince(t0, Clock::now()) / 1000.0);
      if (selected.tasks.empty()) result.problem = "golden selection was empty";
    }
    return 0;
  });

  // Only a sync submit that crosses a z boundary runs the EM pass inline.
  // Elsewhere (no z, or EM on the inference service) time the pass itself:
  // the full inference over the replayed answers.
  if (spec.reinfer_every == 0 || spec.async_inference) {
    result.em_pass_us.clear();
    ScopedSpan pass(main_spans, "ti.em_pass_standalone");
    for (size_t r = 0; r < kRepeats; ++r) {
      ScopedSpan span(main_spans, "ti.full_inference", pass.id());
      const auto t0 = Clock::now();
      facade.RunFullInference();
      result.em_pass_us.push_back(MicrosSince(t0, Clock::now()));
    }
  }

  // Checkpoint of the replayed state (tasks, workers, every answer).
  const std::string ckpt = dir + ".ckpt";
  for (size_t r = 0; r < kRepeats; ++r) {
    ScopedSpan span(main_spans, "storage.checkpoint");
    const auto t0 = Clock::now();
    Status status = facade.SaveCheckpoint(ckpt);
    result.checkpoint_ms.push_back(MicrosSince(t0, Clock::now()) / 1000.0);
    if (!status.ok()) result.problem = "SaveCheckpoint: " + status.ToString();
  }
  std::error_code ec;
  std::filesystem::remove(ckpt, ec);
  return result;
}

// --- 4. standalone passes -------------------------------------------------

struct NetPass {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  bool ok = true;
};

/// Encodes every recorded request and response frame, then decodes the
/// byte stream back through FrameDecoder and the typed decoders.
NetPass RunNetPass(const LoadResult& load, SpanBuffer* spans) {
  struct Message {
    const WireOp* op;
    const ConnectionLog* log;
    std::string worker;
  };
  std::vector<Message> messages;
  for (const auto& log : load.connections) {
    for (const WireOp& op : log.ops) {
      if (!op.ok || messages.size() >= kNetPassOps) continue;
      messages.push_back({&op, &log, WorkerId(op.worker)});
    }
  }
  NetPass pass;
  if (messages.empty()) return pass;
  std::vector<double> encode_ns, decode_ns;
  std::vector<std::string> bytes;
  ScopedSpan root(spans, "net.pass");
  for (size_t r = 0; r < kRepeats; ++r) {
    bytes.clear();
    bytes.reserve(messages.size() * 2);
    {
      ScopedSpan span(spans, "net.encode", root.id());
      const auto t0 = Clock::now();
      for (const Message& m : messages) {
        if (m.op->kind == WireOp::Kind::kRequest) {
          bytes.push_back(net::EncodeFrame(net::EncodeRequestTasksReq(
              {m.worker, static_cast<uint32_t>(kHitSize)})));
          net::RequestTasksResp resp;
          resp.tasks.assign(m.log->hit_tasks.begin() + m.op->hit_begin,
                            m.log->hit_tasks.begin() + m.op->hit_end);
          bytes.push_back(net::EncodeFrame(net::EncodeRequestTasksResp(resp)));
        } else {
          bytes.push_back(net::EncodeFrame(net::EncodeSubmitAnswerReq(
              {m.worker, m.op->task, m.op->choice, m.op->request})));
          bytes.push_back(net::EncodeFrame(net::EncodeSubmitAnswerResp()));
        }
      }
      encode_ns.push_back(MicrosSince(t0, Clock::now()) * 1000.0 /
                          static_cast<double>(bytes.size()));
    }
    {
      ScopedSpan span(spans, "net.decode", root.id());
      const auto t0 = Clock::now();
      net::FrameDecoder decoder;
      net::Frame frame;
      for (const std::string& b : bytes) {
        decoder.Append(b.data(), b.size());
        if (decoder.Next(&frame) != net::FrameDecoder::Result::kFrame) {
          pass.ok = false;
          continue;
        }
        Status status;
        switch (frame.type) {
          case net::MessageType::kRequestTasksReq: {
            net::RequestTasksReq msg;
            status = net::DecodeRequestTasksReq(frame, &msg);
            break;
          }
          case net::MessageType::kRequestTasksResp: {
            net::RequestTasksResp msg;
            status = net::DecodeRequestTasksResp(frame, &msg);
            break;
          }
          case net::MessageType::kSubmitAnswerReq: {
            net::SubmitAnswerReq msg;
            status = net::DecodeSubmitAnswerReq(frame, &msg);
            break;
          }
          default:
            status = net::FrameStatus(frame);
        }
        pass.ok &= status.ok();
      }
      decode_ns.push_back(MicrosSince(t0, Clock::now()) * 1000.0 /
                          static_cast<double>(bytes.size()));
    }
  }
  pass.encode_ns = Median(encode_ns);
  pass.decode_ns = Median(decode_ns);
  return pass;
}

/// Acknowledged answers in recorded order, connection by connection.
std::vector<const WireOp*> AckedSubmits(const LoadResult& load, size_t cap) {
  std::vector<const WireOp*> out;
  for (const auto& log : load.connections) {
    for (const WireOp& op : log.ops) {
      if (out.size() >= cap) return out;
      if (op.ok && op.kind == WireOp::Kind::kSubmit) out.push_back(&op);
    }
  }
  return out;
}

/// AnswerWal::AppendAnswer (append + flush) per recorded answer.
std::vector<double> RunWalPass(const LoadResult& load, const std::string& dir,
                               SpanBuffer* spans, std::string* problem) {
  std::vector<double> append_us;
  if (!ResetDirectory(dir, problem)) return append_us;
  {
    docs::storage::AnswerWal::Contents contents;
    auto wal = docs::storage::AnswerWal::Open(dir + "/answers.wal", &contents);
    if (!wal.ok()) {
      *problem = "AnswerWal::Open: " + wal.status().ToString();
    } else {
      ScopedSpan root(spans, "storage.wal_pass");
      for (const WireOp* op : AckedSubmits(load, kWalPassAnswers)) {
        const std::string id = WorkerId(op->worker);
        ScopedSpan span(spans, "storage.wal_append", root.id(), op->request);
        const auto t0 = Clock::now();
        Status status =
            wal->AppendAnswer(id, op->request, op->task, op->choice);
        append_us.push_back(MicrosSince(t0, Clock::now()));
        if (!status.ok()) *problem = "AppendAnswer: " + status.ToString();
      }
    }
  }
  RemoveDirectory(dir);
  return append_us;
}

struct DurablePass {
  std::vector<double> submit_us;
  double drain_ms = 0.0;
  core::AsyncInferenceStats async;
  uint64_t wal_appends = 0;
};

/// The recorded answers through DurableDocsSystem over an async facade
/// restored from `c0`: the durable and inference-service layers measured on
/// workloads that serve without them.
DurablePass RunDurablePass(const WorkloadSpec& spec, const kb::SyntheticKb& kb,
                           const std::string& c0, const LoadResult& load,
                           const std::string& dir, SpanBuffer* spans,
                           std::string* problem) {
  DurablePass pass;
  core::DocsSystemOptions options = SystemOptions(spec);
  options.async_inference = true;
  Restored restored;
  if (!Restore(kb, options, c0, true, dir, &restored, problem)) return pass;
  ScopedSpan root(spans, "durable.pass");
  std::vector<uint8_t> registered(spec.num_workers, 0);
  std::vector<size_t> tasks;
  size_t accepted = 0;
  for (const WireOp* op : AckedSubmits(load, kDurablePassAnswers)) {
    const std::string id = WorkerId(op->worker);
    if (!registered[op->worker]) {
      registered[op->worker] = 1;
      // First contact registers the worker durably, as over the wire.
      tasks.clear();
      Status status = restored.durable->RequestTasks(id, kHitSize, &tasks);
      if (!status.ok()) *problem = "durable RequestTasks: " + status.ToString();
    }
    ScopedSpan span(spans, "durable.submit_answer", root.id(), op->request);
    const auto t0 = Clock::now();
    Status status =
        restored.durable->SubmitAnswer(id, op->task, op->choice, op->request);
    pass.submit_us.push_back(MicrosSince(t0, Clock::now()));
    if (status.ok()) {
      ++accepted;
    } else {
      *problem = "durable SubmitAnswer: " + status.ToString();
    }
  }
  {
    ScopedSpan span(spans, "infer.drain", root.id());
    const auto t0 = Clock::now();
    restored.facade->Drain();
    pass.drain_ms = MicrosSince(t0, Clock::now()) / 1000.0;
  }
  if (restored.facade->num_answers() != accepted) {
    *problem = "durable pass: num_answers() = " +
               std::to_string(restored.facade->num_answers()) + ", " +
               std::to_string(accepted) + " accepted";
  }
  pass.async = restored.facade->async_stats();
  pass.wal_appends = restored.durable->stats().wal_appends;
  return pass;
}

/// Per-call EntityLinker::Link and DomainVectorEstimator::Estimate times
/// over the campaign's task texts.
void RunLinkPass(const Deployment& d, SpanBuffer* spans,
                 std::vector<double>* link_us, std::vector<double>* dve_us) {
  const auto options = SystemOptions(d.spec()).linker;
  docs::nlp::EntityLinker linker(&d.knowledge().knowledge_base, options);
  core::DomainVectorEstimator estimator(&d.knowledge().knowledge_base, options);
  const auto& tasks = d.campaign().dataset.tasks;
  const size_t n = std::min(kLinkPassTasks, tasks.size());
  ScopedSpan root(spans, "nlp.link_pass");
  size_t entities = 0;
  for (size_t i = 0; i < n; ++i) {
    ScopedSpan span(spans, "nlp.link", root.id());
    const auto t0 = Clock::now();
    entities += linker.Link(tasks[i].text).size();
    link_us->push_back(MicrosSince(t0, Clock::now()));
  }
  ScopedSpan dve_root(spans, "dve.estimate_pass");
  double mass = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ScopedSpan span(spans, "dve.estimate", dve_root.id());
    const auto t0 = Clock::now();
    mass += estimator.Estimate(tasks[i].text).front();
    dve_us->push_back(MicrosSince(t0, Clock::now()));
  }
  if (entities == 0 || mass < 0.0) link_us->clear();
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const SpanBuffer* buffer : buffers) {
    if (buffer == nullptr) continue;
    for (const Span& s : buffer->spans()) {
      out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace

LayerReport RunLayers(const WorkloadSpec& spec, uint64_t seed, double seconds,
                      const std::string& scratch_dir,
                      const std::string& trace_path) {
  LayerReport report;
  SpanBuffer main_spans(kMainSlot);
  std::string error;

  // 1. Set-up, one span per call.
  std::unique_ptr<Deployment> d = Deployment::Create(
      spec, seed, scratch_dir, Clock::now(), &main_spans, &error);
  if (d == nullptr) {
    report.error = "set-up: " + error;
    return report;
  }
  const SetupTimes setup = d->times();
  const std::string c0 = scratch_dir + "/c0.ckpt";
  {
    ScopedSpan span(&main_spans, "storage.checkpoint_c0");
    Status status = d->system().SaveCheckpoint(c0);
    if (!status.ok()) {
      report.error = "pre-traffic checkpoint: " + status.ToString();
      return report;
    }
  }

  // 2. The wire pass.
  LoadOptions options;
  options.seed = seed;
  options.seconds = seconds;
  options.trace = true;
  const LoadResult load = DriveLoad(*d, options);
  ServingChecks checks = CheckServing(*d, load);
  const bool durable = d->durable() != nullptr;
  const core::DurableStats wire_durable =
      durable ? d->durable()->stats() : core::DurableStats{};
  const std::string durable_dir = d->durable_dir();
  if (!d->Shutdown()) {
    checks.Fail("durable directory " + durable_dir + " was not removed");
  }
  report.attempted = load.Attempted();
  report.failed = load.Failed();
  if (!checks.ok) report.Fail(checks.problem);

  // 3. The in-process replay.
  ReplayResult replay = Replay(spec, d->knowledge(), c0, load,
                               scratch_dir + "/replay", &main_spans, &error);
  if (!error.empty()) {
    report.error = "replay: " + error;
    return report;
  }
  if (!replay.problem.empty()) report.Fail(replay.problem);

  // 4. Standalone passes.
  const NetPass net_pass = RunNetPass(load, &main_spans);
  if (!net_pass.ok) report.Fail("net pass: a frame did not round-trip");
  std::string problem;
  const std::vector<double> wal_us =
      RunWalPass(load, scratch_dir + "/wal", &main_spans, &problem);
  if (!problem.empty()) report.Fail("wal pass: " + problem);
  DurablePass durable_pass;
  if (!(durable && spec.async_inference)) {
    problem.clear();
    durable_pass = RunDurablePass(spec, d->knowledge(), c0, load,
                                  scratch_dir + "/durable-pass", &main_spans,
                                  &problem);
    if (!problem.empty()) report.Fail(problem);
  }
  std::vector<double> link_us, dve_us;
  RunLinkPass(*d, &main_spans, &link_us, &dve_us);
  if (link_us.empty()) report.Fail("link pass linked no entity");

  // Metrics, layer by layer.
  MetricSink& sink = report.sink;
  const docs::server::GatewayStats& stats = checks.stats;
  auto count = [&sink](const char* name, uint64_t value,
                       const std::string& note = "") {
    sink.Add(name, static_cast<double>(value), "count", note);
  };
  auto n_note = [](const std::vector<double>& v) {
    return "n=" + std::to_string(v.size());
  };
  using Sessions = LoadResult::Sessions;
  const auto client_requests =
      load.Latencies(WireOp::Kind::kRequest, Sessions::kTraced);
  const auto client_submits =
      load.Latencies(WireOp::Kind::kSubmit, Sessions::kTraced);
  const double client_request_p50 = P50(client_requests);
  const double client_submit_p50 = P50(client_submits);
  const double core_request_p50 = P50(replay.request_us);
  const double core_submit_p50 = P50(replay.submit_us);
  docs::client::ResilientClientStats client;
  for (const auto& c : load.connections) {
    client.retries += c.client.retries;
    client.timeouts += c.client.timeouts;
    client.reconnects += c.client.reconnects;
  }
  sink.Add("client.request_tasks_p50_us", client_request_p50, "us",
           n_note(client_requests) + ", traced sessions");
  sink.Add("client.submit_answer_p50_us", client_submit_p50, "us",
           n_note(client_submits) + ", traced sessions");
  count("client.retries", client.retries);
  count("client.timeouts", client.timeouts);
  count("client.reconnects", client.reconnects);

  sink.Add("net.encode_ns", net_pass.encode_ns, "ns", "per frame");
  sink.Add("net.decode_ns", net_pass.decode_ns, "ns", "per frame");

  sink.Add("server.request_overhead_us", client_request_p50 - core_request_p50,
           "us", "client p50 - in-process p50");
  sink.Add("server.submit_overhead_us", client_submit_p50 - core_submit_p50,
           "us", "client p50 - in-process p50");
  count("server.requests_shed", stats.requests_shed);
  count("server.protocol_errors", stats.protocol_errors);

  // Tails at p90: a slow 30 s run of qa-async-durable replays ~750
  // RequestTasks, too few for a supported p99 (>= 1010 needed).
  bool supported = true;
  for (const auto& [name, values, p] :
       {std::tuple{"core.request_tasks_p50_us", &replay.request_us, 0.50},
        std::tuple{"core.request_tasks_p90_us", &replay.request_us, 0.90},
        std::tuple{"core.submit_answer_p50_us", &replay.submit_us, 0.50},
        std::tuple{"core.submit_answer_p90_us", &replay.submit_us, 0.90}}) {
    supported &= sink.AddQuantile(name, QuantileOfUnsorted(*values, p), p,
                                  "us");
  }
  if (!supported) {
    report.Fail("unsupported percentile: " + sink.unsupported().front());
  }

  const double requests = std::max<double>(
      1.0, static_cast<double>(load.Completed(WireOp::Kind::kRequest)));
  const uint64_t ota_passes =
      stats.benefit_cache_request_hits + stats.benefit_cache_request_misses;
  sink.Add("ota.rows_scored_per_request",
           static_cast<double>(stats.benefit_cache_misses) / requests, "count",
           std::to_string(stats.benefit_cache_misses) + " rows recomputed");
  sink.Add("ota.ns_per_score", Median(replay.ns_per_score), "ns",
           "cold ScoreAllTasks, " + n_note(replay.ns_per_score));
  sink.Add("ota.cache_request_hit_rate",
           ota_passes == 0
               ? 0.0
               : static_cast<double>(stats.benefit_cache_request_hits) /
                     static_cast<double>(ota_passes),
           "ratio", std::to_string(ota_passes) + " scoring passes");
  sink.Add("ota.index_pops_per_request",
           static_cast<double>(stats.benefit_index_pops) / requests, "count");
  count("ota.index_rebuilds", stats.benefit_index_rebuilds);

  sink.Add("ti.em_pass_ms", Median(replay.em_pass_us) / 1000.0, "ms",
           (spec.reinfer_every > 0 && !spec.async_inference
                ? "z-crossing submits, "
                : "standalone full inference, ") +
               n_note(replay.em_pass_us));
  count("ti.em_passes", stats.benefit_index_generation_invalidations);

  // The inference service and durable layer: from the wire pass where the
  // workload serves through them, from the standalone durable pass elsewhere.
  const bool served = durable && spec.async_inference;
  const std::string source = served ? "wire pass" : "standalone durable pass";
  const core::InferenceServiceStats& service = durable_pass.async.service;
  count("infer.publishes", served ? stats.async_publishes : service.publishes,
        source);
  count("infer.enqueue_waits",
        served ? stats.async_enqueue_waits : service.enqueue_waits);
  sink.Add("infer.publish_gap_us",
           served ? stats.async_publish_gap_us : service.last_publish_gap_us,
           "us");
  sink.Add("infer.drain_ms", served ? checks.drain_ms : durable_pass.drain_ms,
           "ms");

  sink.Add("durable.submit_answer_p50_us",
           served ? core_submit_p50 : P50(durable_pass.submit_us), "us",
           served ? "replay" : "standalone durable pass");
  sink.Add("storage.wal_append_p50_us", P50(wal_us), "us", n_note(wal_us));
  sink.Add("storage.checkpoint_ms", Median(replay.checkpoint_ms), "ms");
  count("storage.wal_records",
        served ? wire_durable.wal_appends : durable_pass.wal_appends, source);

  sink.Add("kb.build_s", setup.kb_build_s, "s");
  sink.Add("nlp.link_us", Median(link_us), "us", n_note(link_us));
  sink.Add("dve.estimate_us", Median(dve_us), "us", n_note(dve_us));
  sink.Add("core.golden_select_ms", Median(replay.golden_select_ms), "ms");
  sink.Add("core.add_tasks_s", setup.add_tasks_s, "s");

  sink.Add("bench.generator_share", load.GeneratorShare(), "ratio");
  sink.Add("trace.overhead", load.TraceOverhead(), "ratio",
           "1 - traced/untraced throughput");

  std::vector<const SpanBuffer*> buffers = {&main_spans};
  for (const auto& c : load.connections) buffers.push_back(c.spans.get());
  for (const auto& b : replay.spans) buffers.push_back(b.get());
  if (!WriteSpans(trace_path, buffers)) {
    report.Fail("cannot write spans to " + trace_path);
  }
  std::error_code ec;
  std::filesystem::remove(c0, ec);
  return report;
}

}  // namespace perfbench
