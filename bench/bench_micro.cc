// google-benchmark micro-benchmarks of the hot kernels behind the paper's
// complexity claims: Algorithm 1 (DVE), the TI step and the engine's full
// pass, the OTA benefit computation, golden-count approximation, the worker
// store, the serving score memo's bytes per (worker, task) pair, the bytes
// kept per answer, the snapshot publish and the durable layer's
// dedup-window memory.

#include <benchmark/benchmark.h>

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"
#include "core/domain_vector.h"
#include "core/durable_docs_system.h"
#include "core/golden_selection.h"
#include "core/incremental_ti.h"
#include "core/task_assignment.h"
#include "core/truth_inference.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "storage/worker_store.h"

// --- Heap-allocation accounting ---------------------------------------------
// The serving-path benchmarks report allocations per request, so global
// operator new is replaced with a counting forwarder (process-wide; the
// fetch_add is a few ns against the multi-microsecond operations measured
// here). Scalar and array forms share one counter; the sized/aligned delete
// variants all forward to free() as malloc-backed storage requires.

// The forwarders also keep live, high-water and cumulative byte counts (by
// malloc_usable_size) for BM_DedupWindowBytes' checkpoint peak and
// BM_PublishAfterAnswer's bytes per iteration.

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
std::atomic<uint64_t> g_heap_allocated_bytes{0};
std::atomic<int64_t> g_heap_live_bytes{0};
std::atomic<int64_t> g_heap_peak_bytes{0};

void* CountedMalloc(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
  g_heap_allocated_bytes.fetch_add(static_cast<uint64_t>(bytes),
                                   std::memory_order_relaxed);
  const int64_t live =
      g_heap_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_heap_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_heap_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_heap_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return CountedMalloc(size); }
void* operator new[](std::size_t size) { return CountedMalloc(size); }

// GCC's -Wmismatched-new-delete cannot see through the replaced operators at
// -O2: it pairs the opaque `operator new` call at an inlined delete site with
// the visible free() below and flags a mismatch. The forwarders are malloc/
// free-backed by construction, so the pairing is correct; silence the false
// positive for these definitions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace docs {
namespace {

uint64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

uint64_t HeapAllocatedBytes() {
  return g_heap_allocated_bytes.load(std::memory_order_relaxed);
}

int64_t HeapLiveBytes() {
  return g_heap_live_bytes.load(std::memory_order_relaxed);
}

int64_t HeapPeakBytes() {
  return g_heap_peak_bytes.load(std::memory_order_relaxed);
}

/// Restarts the high-water mark from the current live bytes.
void ResetHeapPeak() {
  g_heap_peak_bytes.store(HeapLiveBytes(), std::memory_order_relaxed);
}

std::vector<core::EntityObservation> RandomEntities(size_t num_entities,
                                                    size_t candidates,
                                                    size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<core::EntityObservation> entities(num_entities);
  for (auto& entity : entities) {
    entity.link_probabilities = rng.Dirichlet(candidates, 1.0);
    entity.indicators.resize(candidates);
    for (auto& h : entity.indicators) {
      h.resize(m);
      for (auto& bit : h) bit = rng.Bernoulli(0.3) ? 1 : 0;
    }
  }
  return entities;
}

// Algorithm 1 over |E_t| entities with top-20 candidates, m = 26.
void BM_DveAlgorithm1(benchmark::State& state) {
  const size_t num_entities = static_cast<size_t>(state.range(0));
  auto entities = RandomEntities(num_entities, 20, 26, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeDomainVector(entities, 26));
  }
}
BENCHMARK(BM_DveAlgorithm1)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

// Enumeration on instances small enough to finish.
void BM_DveEnumeration(benchmark::State& state) {
  const size_t num_entities = static_cast<size_t>(state.range(0));
  auto entities = RandomEntities(num_entities, 3, 26, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeDomainVectorByEnumeration(entities, 26));
  }
}
BENCHMARK(BM_DveEnumeration)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

// One TI step-1 matrix computation for a task with R answers, m = 26.
void BM_TiTruthMatrix(benchmark::State& state) {
  const size_t answers = static_cast<size_t>(state.range(0));
  Rng rng(11);
  core::Task task;
  task.domain_vector = rng.Dirichlet(26, 0.5);
  task.num_choices = 4;
  std::vector<core::Answer> task_answers;
  std::vector<core::WorkerQuality> qualities(answers);
  for (size_t w = 0; w < answers; ++w) {
    task_answers.push_back({0, w, rng.UniformInt(4)});
    qualities[w].quality = rng.Dirichlet(26, 5.0);
    for (auto& q : qualities[w].quality) q = 0.3 + q;  // plausible range
    qualities[w].weight.assign(26, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeTruthMatrix(task, task_answers, qualities));
  }
}
BENCHMARK(BM_TiTruthMatrix)->Arg(5)->Arg(10)->Arg(20);

// Full iterative TI, all 20 iterations (tolerance 0), on one of two input
// shapes (third argument):
//   serving = 0: n tasks with 10 answers each from 100 workers, m = 20, l = 2;
//   serving = 1: the qa-async-durable shape — m = 26, l in {2, 3}, 4 answers
//                per task from 60 workers — at n = 1k/10k/100k: the EM-pass
//                row of the ROADMAP ledger.
// The second argument is the thread count of the EM sweep (1 = the
// sequential loops); results are bit-identical across the sweep, only the
// time moves.
void BM_TiFullRun(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool serving = state.range(2) != 0;
  const size_t m = serving ? 26 : 20;
  const size_t num_workers = serving ? 60 : 100;
  const size_t answers_per_task = serving ? 4 : 10;
  Rng rng(13);
  std::vector<core::Task> tasks(n);
  for (auto& task : tasks) {
    if (serving) {
      task.domain_vector = rng.Dirichlet(m, 0.3);
      task.num_choices = 2 + rng.UniformInt(2);
    } else {
      task.domain_vector.assign(m, 0.0);
      task.domain_vector[rng.UniformInt(m)] = 1.0;
      task.num_choices = 2;
    }
  }
  std::vector<core::Answer> answers;
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < answers_per_task; ++a) {
      answers.push_back({i, (i * 3 + a) % num_workers,
                         rng.UniformInt(tasks[i].num_choices)});
    }
  }
  core::TruthInferenceOptions options;
  options.max_iterations = 20;
  options.tolerance = 0.0;
  options.num_threads = static_cast<size_t>(state.range(1));
  core::TruthInference engine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(tasks, num_workers, answers));
  }
}
BENCHMARK(BM_TiFullRun)
    ->ArgsProduct({{100, 1000}, {1, 2, 4, 8}, {0}})
    ->ArgsProduct({{1000, 10000, 100000}, {1, 2}, {1}})
    ->ArgNames({"n", "threads", "serving"})
    ->Unit(benchmark::kMillisecond);

// The incremental engine's periodic full pass (RunFullInference) on
// BM_TiFullRun's serving shape (m = 26, l in {2, 3}, 4 answers per task from
// 60 workers, all 20 iterations), sequential, with the answers absorbed
// through OnAnswer first. B/op and allocs/op count every operator-new byte
// and call of the timed passes, after one untimed pass: a repeated pass
// should allocate nothing in proportion to the answers.
void BM_EngineFullPass(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = 26;
  const size_t num_workers = 60;
  Rng rng(13);
  std::vector<core::Task> tasks(n);
  for (auto& task : tasks) {
    task.domain_vector = rng.Dirichlet(m, 0.3);
    task.num_choices = 2 + rng.UniformInt(2);
  }
  core::TruthInferenceOptions options;
  options.max_iterations = 20;
  options.tolerance = 0.0;
  core::IncrementalTruthInference engine(tasks, options);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < 4; ++a) {
      Status status = engine.OnAnswer((i * 3 + a) % num_workers, i,
                                      rng.UniformInt(tasks[i].num_choices));
      DOCS_CHECK(status.ok()) << status.ToString();
    }
  }
  engine.RunFullInference(nullptr);
  const uint64_t allocs_before = HeapAllocations();
  const uint64_t bytes_before = HeapAllocatedBytes();
  uint64_t iters = 0;
  for (auto _ : state) {
    engine.RunFullInference(nullptr);
    ++iters;
  }
  if (iters > 0) {
    const auto per_iter = [iters](uint64_t total) {
      return static_cast<double>(total) / static_cast<double>(iters);
    };
    state.counters["allocs/op"] = per_iter(HeapAllocations() - allocs_before);
    state.counters["B/op"] = per_iter(HeapAllocatedBytes() - bytes_before);
  }
}
BENCHMARK(BM_EngineFullPass)
    ->Arg(4000)
    ->Arg(20000)
    ->ArgName("n")
    ->Unit(benchmark::kMillisecond);

// OTA top-k selection over n candidate tasks, m = 26, scored on `threads`
// threads (the SelectTopK benefit loop).
void BM_OtaSelectTopK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t m = 26;
  Rng rng(29);
  std::vector<core::Task> tasks(n);
  std::vector<Matrix> matrices;
  std::vector<std::vector<double>> truths;
  for (auto& task : tasks) {
    task.domain_vector = rng.Dirichlet(m, 0.5);
    task.num_choices = 4;
    Matrix matrix(m, 4, 0.0);
    for (size_t d = 0; d < m; ++d) matrix.SetRow(d, rng.Dirichlet(4, 1.0));
    truths.push_back(matrix.LeftMultiply(task.domain_vector));
    matrices.push_back(std::move(matrix));
  }
  std::vector<double> quality(m);
  for (auto& q : quality) q = rng.UniformDoubleRange(0.4, 0.95);
  std::vector<uint8_t> eligible(n, 1);
  core::TaskAssignerOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  core::TaskAssigner assigner(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assigner.SelectTopK(tasks, matrices, truths, quality, eligible, 10));
  }
}
BENCHMARK(BM_OtaSelectTopK)
    ->ArgsProduct({{1000, 10000}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

// Benefit of a single task (Theorems 2-3 + Eq. 8), m = 26, l = 4.
void BM_OtaBenefit(benchmark::State& state) {
  Rng rng(17);
  core::Task task;
  task.domain_vector = rng.Dirichlet(26, 0.5);
  task.num_choices = 4;
  Matrix matrix(26, 4, 0.0);
  for (size_t d = 0; d < 26; ++d) matrix.SetRow(d, rng.Dirichlet(4, 1.0));
  std::vector<double> truth = matrix.LeftMultiply(task.domain_vector);
  std::vector<double> quality(26);
  for (auto& q : quality) q = rng.UniformDoubleRange(0.4, 0.95);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Benefit(task, matrix, truth, quality));
  }
}
BENCHMARK(BM_OtaBenefit);

// Golden-count approximation for m domains.
void BM_GoldenApproximation(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(19);
  auto tau = rng.Dirichlet(m, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ApproximateGoldenCounts(tau, 20));
  }
}
BENCHMARK(BM_GoldenApproximation)->Arg(10)->Arg(26)->Arg(50);

// Incremental TI per-answer update (the O(m |V(i)|) path of Section 4.2).
void BM_IncrementalOnAnswer(benchmark::State& state) {
  const size_t m = 26;
  Rng rng(23);
  std::vector<core::Task> tasks(1024);
  for (auto& task : tasks) {
    task.domain_vector = rng.Dirichlet(m, 0.5);
    task.num_choices = 2;
  }
  core::IncrementalTruthInference engine(std::move(tasks));
  size_t worker = 0, task = 0;
  for (auto _ : state) {
    Status status = engine.OnAnswer(worker, task, rng.UniformInt(2));
    benchmark::DoNotOptimize(status);
    task = (task + 1) % 1024;
    if (task == 0) ++worker;
  }
}
BENCHMARK(BM_IncrementalOnAnswer);

// End-to-end entity linking + Algorithm 1 for one task description.
void BM_DveEndToEnd(benchmark::State& state) {
  static const kb::SyntheticKb* kKb = new kb::SyntheticKb(kb::BuildSyntheticKb());
  core::DomainVectorEstimator estimator(&kKb->knowledge_base);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.Estimate(
        "Does Michael Jordan win more NBA championships than Kobe Bryant?"));
  }
}
BENCHMARK(BM_DveEndToEnd);

// --- Serving-path RequestTasks benchmarks -----------------------------------
// One DocsSystem over an n-task QA campaign with a settled answer history;
// each iteration ranks the top 10 of bench_w0's eligible (unanswered)
// tasks. Configurations:
//   Warm      — SelectTasks on a quiet system: the serving path pops the
//               top-k off the per-worker benefit index.
//   WarmSweep — Warm across n = 1k/10k/100k tasks: the DESIGN.md §16
//               sub-linearity evidence (scripts/bench.sh gates warm ns/op at
//               100k under 3x the 10k figure; an O(n) warm path would be
//               ~10x).
//   WarmScan  — ScoreAllTasks read off the warm index, then PICK over every
//               eligible score, same n sweep: the O(n) scan the frontier
//               walk replaced (and the churn fallback still runs), for the
//               scaling comparison.
//   Cold      — every eligible task scored from inference() with the
//               allocating reference kernel, then PICK: the seed-era serving
//               path, rescoring every eligible task per request.
//   ColdFused — the same with the fused kernel: full rescoring cost without
//               the per-task heap churn, isolating the two optimizations.
// Each reports allocs/op from the counting operator new above; the
// acceptance bars are Warm at >= 5x fewer allocations than Cold and the
// WarmSweep sub-linearity gate.

constexpr size_t kServeK = 10;

const kb::SyntheticKb& ServingKb() {
  static const kb::SyntheticKb* kKb =
      new kb::SyntheticKb(kb::BuildSyntheticKb());
  return *kKb;
}

std::unique_ptr<core::DocsSystem> MakeServingSystem(size_t num_tasks) {
  const kb::SyntheticKb& kb = ServingKb();
  const auto dataset = datasets::MakeQaDataset(kb, num_tasks);
  std::vector<core::TaskInput> inputs;
  inputs.reserve(dataset.tasks.size());
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  core::DocsSystemOptions options;
  options.golden_count = 0;    // no golden probe: measure OTA serving only
  options.reinfer_every = 0;   // no periodic re-inference mid-benchmark
  options.lease_duration = 0;  // no lease bookkeeping in the request loop
  options.num_threads = 1;
  auto system =
      std::make_unique<core::DocsSystem>(&kb.knowledge_base, options);
  Status status = system->AddTasks(inputs);
  DOCS_CHECK(status.ok()) << status.ToString();
  // Settle a non-trivial inference state: 8 workers answer a spread of
  // tasks, so the benefit scores rank real truth matrices, not priors.
  for (size_t w = 0; w < 8; ++w) {
    const size_t worker = system->WorkerIndex("bench_w" + std::to_string(w));
    for (size_t t = w; t < dataset.tasks.size(); t += 17) {
      system->OnAnswer(worker, t, (t + w) % dataset.tasks[t].num_choices());
    }
  }
  return system;
}

// The quiet serving system of each task count, built on first use and kept
// for the process: repetitions (scripts/bench.sh runs five) and the
// Warm/WarmScan/Cold families re-measure one system instead of rebuilding a
// 100k-task campaign each time. None of them moves its inference state.
core::DocsSystem& SharedServingSystem(size_t num_tasks) {
  static auto* systems =
      new std::map<size_t, std::unique_ptr<core::DocsSystem>>();
  std::unique_ptr<core::DocsSystem>& system = (*systems)[num_tasks];
  if (system == nullptr) system = MakeServingSystem(num_tasks);
  return *system;
}

// Times `rank` (one ranking pass returning the selected tasks) and reports
// allocs/op. One untimed pass warms the index heap and the scratch arenas.
template <typename Rank>
void CountedRankingLoop(benchmark::State& state, Rank&& rank) {
  benchmark::DoNotOptimize(rank());
  const uint64_t allocs_before = HeapAllocations();
  uint64_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rank());
    ++iters;
  }
  if (iters > 0) {
    state.counters["allocs/op"] =
        static_cast<double>(HeapAllocations() - allocs_before) /
        static_cast<double>(iters);
  }
}

// PICK over `worker`'s unanswered tasks, each scored by `score`.
template <typename Score>
std::vector<size_t> RankEligible(const core::DocsSystem& system, size_t worker,
                                 Score&& score) {
  std::vector<core::ScoredTask> scored;
  scored.reserve(system.tasks().size());
  for (size_t i = 0; i < system.tasks().size(); ++i) {
    if (!system.inference().HasAnswered(worker, i)) {
      scored.push_back({i, score(i)});
    }
  }
  return core::SelectTopKFromScored(&scored, kServeK);
}

void ServeRequestTasksLoop(benchmark::State& state, size_t num_tasks) {
  core::DocsSystem& system = SharedServingSystem(num_tasks);
  const size_t worker = system.WorkerIndex("bench_w0");
  CountedRankingLoop(state,
                     [&] { return system.SelectTasks(worker, kServeK); });
}

void BM_ServeRequestTasksWarm(benchmark::State& state) {
  ServeRequestTasksLoop(state, 512);
}
BENCHMARK(BM_ServeRequestTasksWarm);

void BM_ServeRequestTasksWarmSweep(benchmark::State& state) {
  ServeRequestTasksLoop(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_ServeRequestTasksWarmSweep)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->ArgName("n");

void BM_ServeRequestTasksWarmScan(benchmark::State& state) {
  core::DocsSystem& system =
      SharedServingSystem(static_cast<size_t>(state.range(0)));
  const size_t worker = system.WorkerIndex("bench_w0");
  CountedRankingLoop(state, [&] {
    const std::vector<double> scores =
        system.ScoreAllTasks(worker, /*cold=*/false);
    return RankEligible(system, worker, [&](size_t i) { return scores[i]; });
  });
}
BENCHMARK(BM_ServeRequestTasksWarmScan)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->ArgName("n");

// Cold rescoring from live inference state: the reference kernel allocates
// per (task, answer) pair; the fused kernel stages everything in `scratch`.
void ServeRequestTasksColdLoop(benchmark::State& state,
                               core::BenefitScratch* scratch) {
  core::DocsSystem& system = SharedServingSystem(512);
  const size_t worker = system.WorkerIndex("bench_w0");
  const core::IncrementalTruthInference& inference = system.inference();
  const std::vector<double>& quality = inference.worker_quality(worker).quality;
  const double clamp = core::TaskAssignerOptions{}.quality_clamp;
  CountedRankingLoop(state, [&] {
    return RankEligible(system, worker, [&](size_t i) {
      const core::Task& task = system.tasks()[i];
      return scratch == nullptr
                 ? core::Benefit(task, inference.truth_matrix(i),
                                 inference.task_truth(i), quality, clamp)
                 : core::Benefit(task, inference.truth_matrix(i),
                                 inference.task_truth(i), quality, clamp,
                                 scratch);
    });
  });
}

void BM_ServeRequestTasksCold(benchmark::State& state) {
  ServeRequestTasksColdLoop(state, /*scratch=*/nullptr);
}
BENCHMARK(BM_ServeRequestTasksCold);

void BM_ServeRequestTasksColdFused(benchmark::State& state) {
  core::BenefitScratch scratch;
  ServeRequestTasksColdLoop(state, &scratch);
}
BENCHMARK(BM_ServeRequestTasksColdFused);

// Snapshot publish cost on a sync ConcurrentDocsSystem (staleness 0) over an
// n-task QA campaign: each iteration submits one fresh answer, which the
// engine applies inline, then serves one RequestTasks, which republishes
// before it scores. ns/op covers both calls; B/op and allocs/op count every
// operator-new byte and call they make, the publish's included. Public
// facade calls only, so the same source measures any revision of the
// publish. The periodic full EM is off, so every iteration does the same
// work.
void BM_PublishAfterAnswer(benchmark::State& state) {
  const kb::SyntheticKb& kb = ServingKb();
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dataset = datasets::MakeQaDataset(kb, n);
  std::vector<core::TaskInput> inputs;
  inputs.reserve(dataset.tasks.size());
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  core::DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.lease_duration = 0;
  options.num_threads = 1;
  core::ConcurrentDocsSystem system(&kb.knowledge_base, options);
  Status status = system.AddTasks(inputs);
  DOCS_CHECK(status.ok()) << status.ToString();
  // The served worker answers a spread of tasks once, so her requests rank
  // real posteriors; then one warm request builds her index.
  for (size_t t = 0; t < n; t += 17) {
    benchmark::DoNotOptimize(system.RequestTasks("publish_w", 1));
    status = system.SubmitAnswer("publish_w", t, 0);
    DOCS_CHECK(status.ok()) << status.ToString();
  }
  benchmark::DoNotOptimize(system.RequestTasks("publish_w", kServeK));
  // Fresh (answerer, task) pairs: answerer j / n answers task j % n, skipping
  // publish_w's own tasks (a retro-update of her quality would turn the
  // request into an O(n) index rebuild). A new answerer registers through a
  // k = 0 request, once every n iterations.
  size_t next = 0;
  size_t answerers = 0;
  auto answer_and_serve = [&] {
    while (next % n % 17 == 0) ++next;
    const std::string answerer = "answerer_" + std::to_string(next / n);
    if (next / n == answerers) {
      benchmark::DoNotOptimize(system.RequestTasks(answerer, 0));
      ++answerers;
    }
    Status submitted = system.SubmitAnswer(answerer, next % n, 0);
    DOCS_CHECK(submitted.ok()) << submitted.ToString();
    ++next;
    return system.RequestTasks("publish_w", kServeK);
  };
  benchmark::DoNotOptimize(answer_and_serve());
  const uint64_t allocs_before = HeapAllocations();
  const uint64_t bytes_before = HeapAllocatedBytes();
  uint64_t iters = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(answer_and_serve());
    ++iters;
  }
  if (iters > 0) {
    const auto per_iter = [iters](uint64_t total) {
      return static_cast<double>(total) / static_cast<double>(iters);
    };
    state.counters["allocs/op"] = per_iter(HeapAllocations() - allocs_before);
    state.counters["B/op"] = per_iter(HeapAllocatedBytes() - bytes_before);
  }
}
BENCHMARK(BM_PublishAfterAnswer)
    ->Arg(4000)
    ->Arg(20000)
    ->ArgName("n")
    ->Unit(benchmark::kMicrosecond);

// Resident serving bytes per (worker, task) pair: live operator-new bytes
// after each of 50 fresh workers made her first request over n = 10k tasks,
// less the live bytes before, over 50·n. The per-worker score memo
// dominates it (DESIGN.md §16: a 16 B heap entry and a 4 B slot per task);
// the shared eligibility and scoring scratch add well under 1 B per pair.
// Measured once per run: a second pass would find every memo built.
void BM_ServingBytesPerPair(benchmark::State& state) {
  constexpr size_t kWorkers = 50;
  const size_t n = static_cast<size_t>(state.range(0));
  auto system = MakeServingSystem(n);
  std::vector<size_t> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.push_back(system->WorkerIndex("pair_w" + std::to_string(w)));
  }
  int64_t bytes = 0;
  for (auto _ : state) {
    const int64_t live_before = HeapLiveBytes();
    for (size_t worker : workers) {
      benchmark::DoNotOptimize(system->SelectTasks(worker, kServeK));
    }
    bytes = HeapLiveBytes() - live_before;
  }
  state.counters["B/pair"] =
      static_cast<double>(bytes) / static_cast<double>(kWorkers * n);
}
BENCHMARK(BM_ServingBytesPerPair)
    ->Arg(10000)
    ->ArgName("n")
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Retained heap bytes per absorbed answer through the facade: live
// operator-new bytes after 50 registered workers submitted 400 answers each
// to an n-task QA campaign (sync ConcurrentDocsSystem, periodic EM off, no
// request in between), less the live bytes before, per answer. That is what
// every stored form of an answer costs for as long as the campaign runs:
// the engine's per-task and per-worker lists, its arrival log and mutation
// log, and the submission books. Measured once per run.
void BM_RetainedBytesPerAnswer(benchmark::State& state) {
  constexpr size_t kWorkers = 50;
  constexpr size_t kAnswersEach = 400;
  const kb::SyntheticKb& kb = ServingKb();
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<core::TaskInput> inputs;
  for (const auto& task : datasets::MakeQaDataset(kb, n).tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  core::DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 0;
  options.lease_duration = 0;
  options.num_threads = 1;
  core::ConcurrentDocsSystem system(&kb.knowledge_base, options);
  Status status = system.AddTasks(inputs);
  DOCS_CHECK(status.ok()) << status.ToString();
  std::vector<std::string> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.push_back("bytes_w" + std::to_string(w));
    benchmark::DoNotOptimize(system.RequestTasks(workers.back(), 0));
  }
  // A request from a registered worker publishes a snapshot, before the
  // answers and after them, so both readings hold exactly one snapshot: the
  // chunk copies the first answers make of the published posteriors are
  // freed with the retired snapshot, not counted per answer.
  benchmark::DoNotOptimize(system.RequestTasks(workers[0], 0));
  int64_t bytes = 0;
  for (auto _ : state) {
    const int64_t live_before = HeapLiveBytes();
    for (size_t w = 0; w < kWorkers; ++w) {
      for (size_t j = 0; j < kAnswersEach; ++j) {
        // Distinct tasks per worker: j * (n / kAnswersEach) spans [0, n).
        const size_t task = (w + j * (n / kAnswersEach)) % n;
        status = system.SubmitAnswer(workers[w], task, 0);
        DOCS_CHECK(status.ok()) << status.ToString();
      }
    }
    benchmark::DoNotOptimize(system.RequestTasks(workers[0], 0));
    bytes = HeapLiveBytes() - live_before;
  }
  state.counters["B/answer"] = static_cast<double>(bytes) /
                               static_cast<double>(kWorkers * kAnswersEach);
}
BENCHMARK(BM_RetainedBytesPerAnswer)
    ->Arg(4000)
    ->ArgName("n")
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Heap bytes per dedup-window entry of DurableDocsSystem (DESIGN.md §12) at
// dedup_window = n. The window is filled with n rejected submits (60
// unregistered ids, client-style 64-bit request ids), so the facade itself
// allocates nothing that stays; one checkpoint then turns the WAL into the
// carried window, and every timed iteration is one more checkpoint.
//   resident_B/entry — mallinfo2 in-use bytes with the window full, less
//                      those before the fill, per entry;
//   peak_B/entry     — the high-water mark of live operator-new bytes during
//                      the timed checkpoints, less the pre-fill live bytes,
//                      per entry: the checkpoint peak that bounds RSS.
// The recorded code is INVALID_ARGUMENT, whose name is 14 B longer than OK's
// in each `dedup` payload, so both figures overstate an all-OK window by up
// to 28 B per entry.
void BM_DedupWindowBytes(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("docs_bench_dedup_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  core::DocsSystemOptions system_options;
  system_options.golden_count = 0;
  auto facade = std::make_unique<core::ConcurrentDocsSystem>(
      &ServingKb().knowledge_base, system_options);
  std::vector<core::TaskInput> inputs;  // a checkpoint needs a campaign
  for (const auto& task : datasets::MakeQaDataset(ServingKb(), 16).tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  DOCS_CHECK(facade->AddTasks(inputs).ok());
  core::DurableOptions options;
  options.dir = dir;
  options.dedup_window = window;
  core::DurableDocsSystem durable(facade.get(), options);
  DOCS_CHECK(durable.Recover().ok());
  std::vector<std::string> workers;
  for (size_t w = 0; w < 60; ++w) workers.push_back("w" + std::to_string(w));

  const size_t resident_before = mallinfo2().uordblks;
  const int64_t live_before = HeapLiveBytes();
  const uint64_t request_base = (0x9e3779b9ULL | 1) << 32;
  for (size_t i = 0; i < window; ++i) {
    DOCS_CHECK(!durable.SubmitAnswer(workers[i % workers.size()], 0, 0,
                                     request_base + i + 1)
                    .ok());
  }
  DOCS_CHECK(durable.Checkpoint().ok());  // WAL = the carried window
  const size_t resident_after = mallinfo2().uordblks;
  ResetHeapPeak();
  for (auto _ : state) {
    DOCS_CHECK(durable.Checkpoint().ok());
  }
  const double entries = static_cast<double>(window);
  state.counters["resident_B/entry"] =
      (static_cast<double>(resident_after) -
       static_cast<double>(resident_before)) /
      entries;
  state.counters["peak_B/entry"] =
      static_cast<double>(HeapPeakBytes() - live_before) / entries;
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DedupWindowBytes)
    ->Arg(1 << 16)
    ->ArgName("window")
    ->Unit(benchmark::kMillisecond);

// WorkerStore in-memory put+merge throughput.
void BM_WorkerStoreMerge(benchmark::State& state) {
  auto store = storage::WorkerStore::InMemory(26);
  storage::WorkerQualityRecord record;
  record.quality.assign(26, 0.8);
  record.weight.assign(26, 1.0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.Merge("worker_" + std::to_string(i++ % 100), record));
  }
}
BENCHMARK(BM_WorkerStoreMerge);

}  // namespace
}  // namespace docs

BENCHMARK_MAIN();
