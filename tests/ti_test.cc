#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/math_utils.h"
#include "common/rng.h"
#include "core/incremental_ti.h"
#include "core/truth_inference.h"
#include "crowd/campaign.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"

namespace docs::core {
namespace {

// The Section 4.1 running example: task t1 with r = [0, 0.78, 0.22], two
// choices, three workers with the Table 1 qualities; w1 answers "yes" (0),
// w2 and w3 answer "no" (1).
struct PaperExample {
  Task task;
  std::vector<Answer> answers;
  std::vector<WorkerQuality> qualities;
};

PaperExample MakePaperExample() {
  PaperExample ex;
  ex.task.domain_vector = {0.0, 0.78, 0.22};
  ex.task.num_choices = 2;
  ex.answers = {{0, 0, 0}, {0, 1, 1}, {0, 2, 1}};
  ex.qualities.resize(3);
  ex.qualities[0].quality = {0.3, 0.9, 0.6};
  ex.qualities[1].quality = {0.9, 0.6, 0.3};
  ex.qualities[2].quality = {0.6, 0.3, 0.9};
  for (auto& q : ex.qualities) q.weight = {1.0, 1.0, 1.0};
  return ex;
}

TEST(ComputeTruthMatrixTest, PaperRunningExample) {
  auto ex = MakePaperExample();
  Matrix truth_matrix =
      ComputeTruthMatrix(ex.task, ex.answers, ex.qualities, 0.001);
  // Paper: M(1)1 = [0.03, 0.97], M(1)2 = [0.93, 0.07], M(1)3 = [0.28, 0.72].
  EXPECT_NEAR(truth_matrix(0, 0), 0.03, 0.01);
  EXPECT_NEAR(truth_matrix(0, 1), 0.97, 0.01);
  EXPECT_NEAR(truth_matrix(1, 0), 0.93, 0.01);
  EXPECT_NEAR(truth_matrix(1, 1), 0.07, 0.01);
  EXPECT_NEAR(truth_matrix(2, 0), 0.28, 0.01);
  EXPECT_NEAR(truth_matrix(2, 1), 0.72, 0.01);

  // s1 = r x M = [0.79, 0.21]: the minority "yes" wins because w1 is the
  // sports expert and the task is mostly about sports.
  auto s = truth_matrix.LeftMultiply(ex.task.domain_vector);
  EXPECT_NEAR(s[0], 0.79, 0.01);
  EXPECT_NEAR(s[1], 0.21, 0.01);
  EXPECT_GT(s[0], s[1]);
}

TEST(ComputeTruthMatrixTest, NoAnswersYieldsUniformRows) {
  Task task;
  task.domain_vector = {0.5, 0.5};
  task.num_choices = 3;
  std::vector<WorkerQuality> qualities;
  Matrix truth_matrix = ComputeTruthMatrix(task, {}, qualities);
  for (size_t k = 0; k < 2; ++k) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(truth_matrix(k, j), 1.0 / 3.0, 1e-12);
    }
  }
}

TEST(ComputeTruthMatrixTest, SkipsStrayAnswersWithCount) {
  auto ex = MakePaperExample();
  const Matrix clean =
      ComputeTruthMatrix(ex.task, ex.answers, ex.qualities, 0.001);

  auto answers = ex.answers;
  answers.push_back({0, 9, 0});  // worker with no quality vector at all
  answers.push_back({0, 1, 5});  // choice out of range (l = 2)
  auto qualities = ex.qualities;
  qualities.emplace_back();  // worker 3 exists but with a 0-dim quality vector
  answers.push_back({0, 3, 0});

  size_t skipped = 0;
  const Matrix got =
      ComputeTruthMatrix(ex.task, answers, qualities, 0.001, &skipped);
  EXPECT_EQ(skipped, 3u);
  // The strays contribute nothing: bitwise equal to the clean computation.
  EXPECT_EQ(got.data(), clean.data());
}

TEST(ComputeTruthMatrixTest, RowsAreDistributions) {
  auto ex = MakePaperExample();
  Matrix truth_matrix = ComputeTruthMatrix(ex.task, ex.answers, ex.qualities);
  for (size_t k = 0; k < truth_matrix.rows(); ++k) {
    EXPECT_TRUE(IsDistribution(truth_matrix.Row(k), 1e-9));
  }
}

TEST(GoldenInitTest, ComputesWeightedCorrectFraction) {
  std::vector<Task> tasks(2);
  tasks[0].domain_vector = {0.9, 0.1};
  tasks[0].num_choices = 2;
  tasks[1].domain_vector = {0.2, 0.8};
  tasks[1].num_choices = 2;
  // Worker 0 answers task 0 correctly (truth 1) and task 1 wrongly.
  std::vector<Answer> answers = {{0, 0, 1}, {1, 0, 0}};
  auto qualities = InitializeQualityFromGolden(tasks, 1, answers, {0, 1},
                                               {1, 1}, 0.7, /*smoothing=*/0.0);
  ASSERT_EQ(qualities.size(), 1u);
  // Domain 0: correct mass 0.9 of total 1.1; domain 1: 0.1 of 0.9.
  EXPECT_NEAR(qualities[0].quality[0], 0.9 / 1.1, 1e-9);
  EXPECT_NEAR(qualities[0].quality[1], 0.1 / 0.9, 1e-9);
  EXPECT_NEAR(qualities[0].weight[0], 1.1, 1e-9);
  EXPECT_NEAR(qualities[0].weight[1], 0.9, 1e-9);
}

TEST(GoldenInitTest, SmoothingPullsTowardDefault) {
  std::vector<Task> tasks(1);
  tasks[0].domain_vector = {1.0};
  tasks[0].num_choices = 2;
  auto qualities =
      InitializeQualityFromGolden(tasks, 1, {}, {0}, {0}, 0.7, 1.0);
  EXPECT_NEAR(qualities[0].quality[0], 0.7, 1e-12);  // no data -> default
}

TEST(GoldenInitTest, NonGoldenAnswersIgnored) {
  std::vector<Task> tasks(2);
  for (auto& t : tasks) {
    t.domain_vector = {1.0};
    t.num_choices = 2;
  }
  // Task 1 is not golden; the wrong answer there must not hurt.
  std::vector<Answer> answers = {{0, 0, 1}, {1, 0, 0}};
  auto with = InitializeQualityFromGolden(tasks, 1, answers, {0}, {1}, 0.7, 0.0);
  EXPECT_NEAR(with[0].quality[0], 1.0, 1e-12);
}

TEST(GoldenInitTest, SkipsStrayInputsWithCount) {
  std::vector<Task> tasks(2);
  tasks[0].domain_vector = {0.9, 0.1};
  tasks[0].num_choices = 2;
  tasks[1].domain_vector = {0.2, 0.8};
  tasks[1].num_choices = 2;
  const std::vector<Answer> clean_answers = {{0, 0, 1}, {1, 0, 0}};
  const auto clean = InitializeQualityFromGolden(tasks, 1, clean_answers,
                                                 {0, 1}, {1, 1}, 0.7, 0.0);

  auto answers = clean_answers;
  answers.push_back({7, 0, 1});  // task out of range
  answers.push_back({0, 4, 1});  // worker out of range
  size_t skipped = 0;
  // The golden index 9 is out of range too: ignored rather than written out
  // of bounds (it would otherwise corrupt the truth-of-task map).
  const auto got = InitializeQualityFromGolden(
      tasks, 1, answers, {0, 1, 9}, {1, 1, 0}, 0.7, 0.0, &skipped);
  EXPECT_EQ(skipped, 2u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].quality, clean[0].quality);
  EXPECT_EQ(got[0].weight, clean[0].weight);
}

TEST(GoldenInitTest, MismatchedGoldenArraysNeverReadOutOfBounds) {
  std::vector<Task> tasks(2);
  tasks[0].domain_vector = {0.9, 0.1};
  tasks[0].num_choices = 2;
  tasks[1].domain_vector = {0.2, 0.8};
  tasks[1].num_choices = 2;
  const std::vector<Answer> answers = {{0, 0, 1}, {1, 0, 0}};
  const auto clean =
      InitializeQualityFromGolden(tasks, 1, answers, {0}, {1}, 0.7, 0.0);

  // golden_tasks longer than golden_truth: the parallel arrays are bounded
  // by the shorter one, so the unlabeled golden entry is dropped and counted
  // (it used to read golden_truth[1] out of bounds).
  size_t skipped = 0;
  const auto got = InitializeQualityFromGolden(tasks, 1, answers, {0, 1}, {1},
                                               0.7, 0.0, &skipped);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].quality, clean[0].quality);
  EXPECT_EQ(got[0].weight, clean[0].weight);

  // golden_truth longer than golden_tasks: the excess labels have no golden
  // task to attach to and change nothing.
  const auto extra = InitializeQualityFromGolden(tasks, 1, answers, {0},
                                                 {1, 0, 1}, 0.7, 0.0);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0].quality, clean[0].quality);
  EXPECT_EQ(extra[0].weight, clean[0].weight);
}

// --- Full iterative inference on simulated crowds ---------------------------

struct SimSetup {
  std::vector<Task> tasks;
  std::vector<size_t> truths;
  std::vector<crowd::SimulatedWorker> workers;
  std::vector<Answer> answers;
};

SimSetup MakeSimSetup(size_t num_tasks, size_t num_workers, uint64_t seed) {
  SimSetup setup;
  const size_t m = 4;
  Rng rng(seed);
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = num_workers;
  setup.workers = crowd::MakeWorkerPool(m, {0, 1, 2, 3}, pool_options, seed);
  for (size_t i = 0; i < num_tasks; ++i) {
    Task task;
    task.domain_vector.assign(m, 0.0);
    const size_t domain = i % m;
    task.domain_vector[domain] = 1.0;
    task.num_choices = 2;
    setup.tasks.push_back(task);
    setup.truths.push_back(rng.UniformInt(2));
  }
  // 10 answers per task from distinct random workers.
  for (size_t i = 0; i < num_tasks; ++i) {
    std::vector<size_t> order(num_workers);
    for (size_t w = 0; w < num_workers; ++w) order[w] = w;
    rng.Shuffle(order);
    const size_t domain = i % m;
    for (size_t a = 0; a < 10 && a < num_workers; ++a) {
      const size_t w = order[a];
      const size_t choice = crowd::GenerateAnswer(setup.workers[w], domain,
                                                  setup.truths[i], 2, rng);
      setup.answers.push_back({i, w, choice});
    }
  }
  return setup;
}

double Accuracy(const std::vector<size_t>& inferred,
                const std::vector<size_t>& truths) {
  size_t correct = 0;
  for (size_t i = 0; i < truths.size(); ++i) correct += inferred[i] == truths[i];
  return static_cast<double>(correct) / truths.size();
}

TEST(TruthInferenceTest, HighAccuracyOnSimulatedCrowd) {
  auto setup = MakeSimSetup(200, 60, 77);
  TruthInference engine;
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  EXPECT_GT(Accuracy(result.inferred_choice, setup.truths), 0.9);
}

TEST(TruthInferenceTest, DeltaShrinksOverIterations) {
  auto setup = MakeSimSetup(150, 50, 78);
  TruthInferenceOptions options;
  options.max_iterations = 30;
  options.tolerance = 0.0;  // run all iterations
  TruthInference engine(options);
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  ASSERT_GE(result.delta_history.size(), 5u);
  EXPECT_LT(result.delta_history.back(), result.delta_history.front());
  EXPECT_LT(result.delta_history.back(), 1e-3);
}

TEST(TruthInferenceTest, ConvergesEarlyWithTolerance) {
  auto setup = MakeSimSetup(100, 40, 79);
  TruthInferenceOptions options;
  options.max_iterations = 100;
  options.tolerance = 1e-6;
  TruthInference engine(options);
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  EXPECT_LT(result.iterations_run, 100u);  // paper: u <= 20 in practice
}

TEST(TruthInferenceTest, EstimatedQualityTracksTrueQuality) {
  auto setup = MakeSimSetup(400, 30, 80);
  TruthInference engine;
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  // Average |q - q̃| over domains where the worker answered enough tasks.
  double deviation = 0.0;
  size_t terms = 0;
  for (size_t w = 0; w < setup.workers.size(); ++w) {
    for (size_t k = 0; k < 4; ++k) {
      if (result.worker_quality[w].weight[k] < 20.0) continue;
      deviation += std::fabs(result.worker_quality[w].quality[k] -
                             setup.workers[w].true_quality[k]);
      ++terms;
    }
  }
  ASSERT_GT(terms, 0u);
  EXPECT_LT(deviation / terms, 0.1);
}

TEST(TruthInferenceTest, WeightsEqualDomainMass) {
  auto setup = MakeSimSetup(50, 20, 81);
  TruthInference engine;
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  std::vector<std::vector<double>> expected(setup.workers.size(),
                                            std::vector<double>(4, 0.0));
  for (const auto& answer : setup.answers) {
    for (size_t k = 0; k < 4; ++k) {
      expected[answer.worker][k] += setup.tasks[answer.task].domain_vector[k];
    }
  }
  for (size_t w = 0; w < setup.workers.size(); ++w) {
    for (size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(result.worker_quality[w].weight[k], expected[w][k], 1e-9);
    }
  }
}

TEST(TruthInferenceTest, WorkersWithoutAnswersKeepSeedQuality) {
  std::vector<Task> tasks(1);
  tasks[0].domain_vector = {1.0};
  tasks[0].num_choices = 2;
  std::vector<Answer> answers = {{0, 0, 0}};
  TruthInference engine;
  // Two workers, only worker 0 answers.
  auto result = engine.Run(tasks, 2, answers);
  EXPECT_NEAR(result.worker_quality[1].quality[0],
              engine.options().default_quality, 1e-12);
  EXPECT_NEAR(result.worker_quality[1].weight[0], 0.0, 1e-12);
}

TEST(TruthInferenceTest, InitialQualitySeedsAreUsed) {
  // One task, two workers disagreeing; the seeded expert should win.
  std::vector<Task> tasks(1);
  tasks[0].domain_vector = {1.0};
  tasks[0].num_choices = 2;
  std::vector<Answer> answers = {{0, 0, 0}, {0, 1, 1}};
  std::vector<WorkerQuality> seeds(2);
  seeds[0].quality = {0.95};
  seeds[0].weight = {50.0};
  seeds[1].quality = {0.55};
  seeds[1].weight = {50.0};
  TruthInferenceOptions options;
  options.max_iterations = 1;
  TruthInference engine(options);
  auto result = engine.Run(tasks, 2, answers, &seeds);
  EXPECT_EQ(result.inferred_choice[0], 0u);
}

TEST(TruthInferenceTest, DeterministicAcrossRuns) {
  auto setup = MakeSimSetup(80, 25, 82);
  TruthInference engine;
  auto a = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  auto b = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  EXPECT_EQ(a.inferred_choice, b.inferred_choice);
  for (size_t i = 0; i < setup.tasks.size(); ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(a.task_truth[i][j], b.task_truth[i][j]);
    }
  }
}

TEST(TruthInferenceTest, EmptyInput) {
  TruthInference engine;
  auto result = engine.Run({}, 0, {});
  EXPECT_TRUE(result.task_truth.empty());
  EXPECT_TRUE(result.worker_quality.empty());
}

TEST(TruthInferenceTest, TruthsAreDistributions) {
  auto setup = MakeSimSetup(60, 20, 83);
  TruthInference engine;
  auto result = engine.Run(setup.tasks, setup.workers.size(), setup.answers);
  for (const auto& s : result.task_truth) {
    EXPECT_TRUE(IsDistribution(s, 1e-9));
  }
}

TEST(GoldenInitTest, ZeroSmoothingWithoutGoldenAnswersStaysFinite) {
  // Regression: with smoothing = 0 a worker who answered no golden task in
  // some domain hit 0/0 and walked away with NaN quality, which then poisoned
  // the first EM iteration. The guard must fall back to the default quality.
  std::vector<Task> tasks(2);
  for (auto& task : tasks) {
    task.domain_vector = {1.0};
    task.num_choices = 2;
  }
  std::vector<Answer> answers = {{0, 0, 0}};  // worker 0 answers golden task 0
  auto seeds = InitializeQualityFromGolden(tasks, /*num_workers=*/2, answers,
                                           /*golden_tasks=*/{0},
                                           /*golden_truth=*/{0},
                                           /*default_quality=*/0.7,
                                           /*smoothing=*/0.0);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(seeds[0].quality[0], 1.0);  // answered its golden correctly
  // Worker 1 never answered a golden task: default, not NaN.
  EXPECT_DOUBLE_EQ(seeds[1].quality[0], 0.7);
  EXPECT_TRUE(std::isfinite(seeds[1].quality[0]));
}

TEST(TruthInferenceTest, SeedWithShortWeightFallsBackToDefault) {
  // Regression: a seed whose quality spans the m domains but whose weight
  // does not was accepted, and step 2 then read weight[k] past the end. Such
  // a seed is ignored like any other mis-sized one: the worker starts at
  // the default, exactly as if no seed had been given.
  std::vector<Task> tasks(2);
  tasks[0].domain_vector = {0.7, 0.3};
  tasks[0].num_choices = 2;
  tasks[1].domain_vector = {0.2, 0.8};
  tasks[1].num_choices = 3;
  const std::vector<Answer> answers = {
      {0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 2}};
  std::vector<WorkerQuality> seeds(2);
  seeds[0].quality = {0.9, 0.8};  // no weight at all
  seeds[1].quality = {0.6, 0.95};
  seeds[1].weight = {2.0};  // one weight for two domains
  TruthInference engine;
  const auto seeded = engine.Run(tasks, 2, answers, &seeds);
  const auto unseeded = engine.Run(tasks, 2, answers);
  for (size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(seeded.worker_quality[w].quality,
              unseeded.worker_quality[w].quality)
        << "worker " << w;
    EXPECT_EQ(seeded.worker_quality[w].weight,
              unseeded.worker_quality[w].weight)
        << "worker " << w;
  }
  EXPECT_EQ(seeded.task_truth, unseeded.task_truth);
}

// --- Bit-identity of the table-driven step 1 ---------------------------------

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         BitEqual(a.data(), b.data());
}

/// The EM loop of Section 4.1 with step 1 taken answer by answer through the
/// public ComputeTruthMatrixInto — the reference that TruthInference::Run's
/// log-table sweep must reproduce bit for bit. Step 2 and the convergence
/// check restate Run's arithmetic in its order.
TruthInferenceResult ReferenceEm(const std::vector<Task>& tasks,
                                 size_t num_workers,
                                 const std::vector<Answer>& answers,
                                 const std::vector<WorkerQuality>& seeds,
                                 const TruthInferenceOptions& options) {
  const size_t n = tasks.size();
  const size_t m = tasks[0].domain_vector.size();
  std::vector<std::vector<Answer>> answers_of_task(n);
  for (const Answer& answer : answers) {
    answers_of_task[answer.task].push_back(answer);
  }
  TruthInferenceResult result;
  result.task_truth.resize(n);
  result.truth_matrices.resize(n);
  result.worker_quality.resize(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    if (w < seeds.size() && seeds[w].quality.size() == m &&
        seeds[w].weight.size() == m) {
      result.worker_quality[w] = seeds[w];
    } else {
      result.worker_quality[w].quality.assign(m, options.default_quality);
      result.worker_quality[w].weight.assign(m, 0.0);
    }
  }
  const std::vector<WorkerQuality> seeded = result.worker_quality;
  const double prior = options.quality_prior_strength;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<std::vector<double>> prev_truth = result.task_truth;
    for (size_t i = 0; i < n; ++i) {
      ComputeTruthMatrixInto(tasks[i], answers_of_task[i],
                             result.worker_quality, options.quality_clamp,
                             &result.truth_matrices[i]);
      result.task_truth[i] =
          result.truth_matrices[i].LeftMultiply(tasks[i].domain_vector);
      NormalizeInPlace(result.task_truth[i]);
    }
    const std::vector<WorkerQuality> prev_quality = result.worker_quality;
    for (size_t w = 0; w < num_workers; ++w) {
      std::vector<double> numer(m, 0.0);
      std::vector<double> denom(m, 0.0);
      for (size_t i = 0; i < n; ++i) {
        for (const Answer& answer : answers_of_task[i]) {
          if (answer.worker != w) continue;
          const double s_iv = result.task_truth[i][answer.choice];
          for (size_t k = 0; k < m; ++k) {
            numer[k] += tasks[i].domain_vector[k] * s_iv;
            denom[k] += tasks[i].domain_vector[k];
          }
        }
      }
      double overall_numer = prior * options.default_quality;
      double overall_denom = prior;
      for (size_t k = 0; k < m; ++k) {
        overall_numer += numer[k] + seeded[w].quality[k] * seeded[w].weight[k];
        overall_denom += denom[k] + seeded[w].weight[k];
      }
      const double overall = overall_denom > 0.0
                                 ? overall_numer / overall_denom
                                 : options.default_quality;
      for (size_t k = 0; k < m; ++k) {
        const double seed_mass = seeded[w].weight[k];
        const double prior_numer =
            seeded[w].quality[k] * seed_mass + overall * prior;
        const double total_mass = denom[k] + (seed_mass + prior);
        result.worker_quality[w].quality[k] =
            total_mass > 0.0 ? (numer[k] + prior_numer) / total_mass
                             : seeded[w].quality[k];
        result.worker_quality[w].weight[k] = denom[k] + seed_mass;
      }
    }
    double delta = 0.0;
    if (iter > 0) {
      double truth_change = 0.0;
      size_t truth_terms = 0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < result.task_truth[i].size(); ++j) {
          truth_change += std::fabs(result.task_truth[i][j] - prev_truth[i][j]);
          ++truth_terms;
        }
      }
      double quality_change = 0.0;
      for (size_t w = 0; w < num_workers; ++w) {
        for (size_t k = 0; k < m; ++k) {
          quality_change += std::fabs(result.worker_quality[w].quality[k] -
                                      prev_quality[w].quality[k]);
        }
      }
      delta = truth_change / static_cast<double>(truth_terms) +
              quality_change / static_cast<double>(num_workers * m);
      result.delta_history.push_back(delta);
    }
    result.iterations_run = iter + 1;
    if (iter > 0 && delta < options.tolerance) break;
  }
  return result;
}

TEST(TruthInferenceTest, LogTableStepMatchesPerAnswerReference) {
  // 96 tasks (six ParallelFor chunks) over m = 5 domains with l cycling
  // through {1, 2, 3, 6}; task 5 gets no answers and worker 7 answers
  // nothing. Even workers carry golden-style seeds, odd ones the default.
  const size_t n = 96, m = 5, num_workers = 12;
  const size_t choice_counts[] = {1, 2, 3, 6};
  Rng rng(2024);
  std::vector<Task> tasks(n);
  for (size_t i = 0; i < n; ++i) {
    tasks[i].domain_vector = rng.Dirichlet(m, 0.5);
    tasks[i].num_choices = choice_counts[i % 4];
  }
  std::vector<Answer> answers;
  for (size_t i = 0; i < n; ++i) {
    if (i == 5) continue;
    for (size_t a = 0; a < 4; ++a) {
      // Four distinct slots out of the 11 answering workers (all but 7).
      const size_t slot = (i * 5 + a * 3) % (num_workers - 1);
      const size_t w = slot < 7 ? slot : slot + 1;
      answers.push_back({i, w, rng.UniformInt(tasks[i].num_choices)});
    }
  }
  std::vector<WorkerQuality> seeds(num_workers);
  for (size_t w = 0; w < num_workers; w += 2) {
    for (size_t k = 0; k < m; ++k) {
      seeds[w].quality.push_back(rng.UniformDoubleRange(0.3, 0.99));
      seeds[w].weight.push_back(rng.UniformDoubleRange(0.0, 4.0));
    }
  }
  TruthInferenceOptions options;
  options.tolerance = 0.0;  // all 20 iterations: the longest comparison
  const TruthInferenceResult reference =
      ReferenceEm(tasks, num_workers, answers, seeds, options);
  ASSERT_EQ(reference.iterations_run, options.max_iterations);

  for (size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    const TruthInferenceResult got =
        TruthInference(options).Run(tasks, num_workers, answers, &seeds);
    ASSERT_EQ(got.iterations_run, reference.iterations_run);
    EXPECT_TRUE(BitEqual(got.delta_history, reference.delta_history));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(got.task_truth[i], reference.task_truth[i]))
          << "task " << i;
      EXPECT_TRUE(BitEqual(got.truth_matrices[i], reference.truth_matrices[i]))
          << "task " << i;
    }
    for (size_t w = 0; w < num_workers; ++w) {
      EXPECT_TRUE(BitEqual(got.worker_quality[w].quality,
                           reference.worker_quality[w].quality))
          << "worker " << w;
      EXPECT_TRUE(BitEqual(got.worker_quality[w].weight,
                           reference.worker_quality[w].weight))
          << "worker " << w;
    }

    // The incremental engine's rebuild after a full pass: every M^(i) is the
    // per-answer recompute from the converged qualities.
    IncrementalTruthInference incremental(tasks, options);
    incremental.EnsureWorker(num_workers - 1);
    for (size_t w = 0; w < num_workers; w += 2) {
      ASSERT_TRUE(incremental.SetWorkerQuality(w, seeds[w]).ok());
    }
    std::vector<std::vector<Answer>> answers_of_task(n);
    for (const Answer& answer : answers) {
      ASSERT_TRUE(
          incremental.OnAnswer(answer.worker, answer.task, answer.choice).ok());
      answers_of_task[answer.task].push_back(answer);
    }
    ThreadPool pool(threads);
    incremental.RunFullInference(&pool);
    std::vector<WorkerQuality> converged;
    for (size_t w = 0; w < num_workers; ++w) {
      converged.push_back(incremental.worker_quality(w));
    }
    for (size_t i = 0; i < n; ++i) {
      Matrix expected;
      ComputeTruthMatrixInto(tasks[i], answers_of_task[i], converged,
                             options.quality_clamp, &expected);
      EXPECT_TRUE(BitEqual(incremental.truth_matrix(i), expected))
          << "task " << i;
      std::vector<double> truth = expected.LeftMultiply(tasks[i].domain_vector);
      NormalizeInPlace(truth);
      EXPECT_TRUE(BitEqual(incremental.task_truth(i), truth)) << "task " << i;
    }
  }
}

// --- The row softmax of Eq. 3 and the log-odds step 1 -----------------------

#if DOCS_DEBUG_CHECKS
constexpr bool kDebugChecks = true;
#else
constexpr bool kDebugChecks = false;
#endif

/// Distance in units in the last place between two non-negative doubles.
uint64_t UlpDistance(double a, double b) {
  int64_t ia = 0, ib = 0;
  std::memcpy(&ia, &a, sizeof a);
  std::memcpy(&ib, &b, sizeof b);
  return static_cast<uint64_t>(ia > ib ? ia - ib : ib - ia);
}

/// The LogSumExp form of Eq. 3's row softmax, exp(x_j - LogSumExp(x)), in
/// long double: the accurate reference the one-exp-per-entry form is held
/// to.
std::vector<double> LogSumExpRow(const std::vector<double>& x) {
  long double max = x[0];
  for (double v : x) max = std::max<long double>(max, v);
  long double total = 0.0L;
  for (double v : x) total += std::exp(static_cast<long double>(v) - max);
  const long double lse = max + std::log(total);
  std::vector<double> out;
  for (double v : x) {
    out.push_back(static_cast<double>(std::exp(v - lse)));
  }
  return out;
}

TEST(SoftmaxRowsTest, MatchesLogSumExpAndIgnoresRowConstants) {
  // Rows of l = 2..5 entries up to +-700, with ties. Entries sit on a
  // 2^-30 grid, so every difference and every grid shift below is exact in
  // double and what is compared is the softmax itself, not input rounding.
  Rng rng(8);
  const double grid = std::ldexp(1.0, -30);
  auto on_grid = [grid](double v) { return std::round(v / grid) * grid; };
  for (size_t l = 2; l <= 5; ++l) {
    for (size_t trial = 0; trial < 2000; ++trial) {
      SCOPED_TRACE("l=" + std::to_string(l) + " trial " +
                   std::to_string(trial));
      // Wide rows span the whole range (most entries underflow against the
      // max); narrow rows cluster near a center anywhere in it; tied rows
      // draw from two values so the max repeats.
      const size_t kind = trial % 3;
      const double center = rng.UniformDoubleRange(-690.0, 690.0);
      const double a = on_grid(rng.UniformDoubleRange(-700.0, 700.0));
      const double b = on_grid(rng.UniformDoubleRange(-700.0, 700.0));
      Matrix x(1, l);
      for (size_t j = 0; j < l; ++j) {
        if (kind == 0) {
          x(0, j) = on_grid(rng.UniformDoubleRange(-700.0, 700.0));
        } else if (kind == 1) {
          x(0, j) = on_grid(center + rng.UniformDoubleRange(-8.0, 8.0));
        } else {
          x(0, j) = rng.Bernoulli(0.5) ? a : b;
        }
      }
      Matrix y;
      SoftmaxRowsInto(x, &y);
      const std::vector<double> reference = LogSumExpRow(x.data());
      double sum = 0.0;
      for (size_t j = 0; j < l; ++j) {
        sum += y(0, j);
        EXPECT_LE(UlpDistance(y(0, j), reference[j]), 4u)
            << "entry " << j << ": " << y(0, j) << " vs " << reference[j];
      }
      EXPECT_NEAR(sum, 1.0, 1e-15 * static_cast<double>(l));

      // Eq. 3 is invariant under a per-row constant.
      const double shift = on_grid(rng.UniformDoubleRange(-5.0, 5.0));
      Matrix shifted = x;
      for (size_t j = 0; j < l; ++j) shifted(0, j) += shift;
      Matrix y_shifted;
      SoftmaxRowsInto(shifted, &y_shifted);
      for (size_t j = 0; j < l; ++j) {
        EXPECT_LE(UlpDistance(y_shifted(0, j), y(0, j)), 4u) << "entry " << j;
      }
    }
  }
}

TEST(SoftmaxRowsTest, UniformRowsAreExactlyOneOverL) {
  // A task with no answers has a zero log-numerator; its rows must be the
  // same 1/l the engine's prior holds, bit for bit.
  for (size_t l = 1; l <= 7; ++l) {
    Matrix y;
    SoftmaxRowsInto(Matrix(3, l, 0.0), &y);
    for (size_t k = 0; k < 3; ++k) {
      for (size_t j = 0; j < l; ++j) {
        EXPECT_EQ(y(k, j), 1.0 / static_cast<double>(l)) << "l=" << l;
      }
    }
  }
}

/// Step 1 in the form the log-odds replaced: every answer adds log q to
/// its chosen column and log((1 - q) / (l - 1)) to every other one, then
/// exp(x_j - LogSumExp(x)) per row.
Matrix FullLogNumeratorTruthMatrix(const Task& task,
                                   const std::vector<Answer>& answers,
                                   const std::vector<WorkerQuality>& qualities,
                                   double clamp) {
  const size_t m = task.domain_vector.size();
  const size_t l = task.num_choices;
  Matrix out(m, l);
  for (size_t k = 0; k < m; ++k) {
    std::vector<double> row(l, 0.0);
    for (const Answer& answer : answers) {
      const double q = std::min(
          1.0 - clamp, std::max(clamp, qualities[answer.worker].quality[k]));
      for (size_t j = 0; j < l; ++j) {
        row[j] += j == answer.choice
                      ? std::log(q)
                      : std::log((1.0 - q) / static_cast<double>(l - 1));
      }
    }
    const double lse = LogSumExp(row);
    for (size_t j = 0; j < l; ++j) out(k, j) = std::exp(row[j] - lse);
  }
  return out;
}

TEST(ComputeTruthMatrixTest, ZeroClampInfiniteLogOddsMatchTheFullForm) {
  // quality_clamp = 0 lets q reach 0 and 1, so an answer's log-odds is -inf
  // or +inf. Per domain row, the posterior must be the one the full
  // log-numerator form gives: the same value where that is finite, NaN
  // where that is NaN (every column -inf there). A column shared by a q = 1
  // and a q = 0 answer sums to NaN here, but the full form is NaN in that
  // row too, so no row turns NaN that was finite.
  // Domains: 0 = both extremes, 1 = one worker perfect, 2 = ordinary.
  std::vector<WorkerQuality> qualities(4);
  qualities[0].quality = {1.0, 1.0, 0.8};  // perfect in domains 0 and 1
  qualities[1].quality = {0.0, 0.6, 0.7};  // always wrong in domain 0
  qualities[2].quality = {1.0, 0.3, 0.6};
  qualities[3].quality = {0.0, 0.9, 0.55};
  for (auto& q : qualities) q.weight = {1.0, 1.0, 1.0};
  struct Case {
    size_t l;
    std::vector<Answer> answers;
  };
  const std::vector<Case> cases = {
      {2, {{0, 0, 0}}},                        // +inf alone: one-hot
      {3, {{0, 0, 1}}},                        // +inf alone, l = 3
      {2, {{0, 1, 0}}},                        // -inf alone: the other choice
      {3, {{0, 1, 2}, {0, 3, 0}}},             // two -inf columns, l = 3
      {3, {{0, 0, 0}, {0, 1, 1}, {0, 3, 2}}},  // +inf and -infs apart
      {2, {{0, 0, 0}, {0, 2, 1}}},             // two +inf columns: NaN row
      {2, {{0, 0, 0}, {0, 1, 0}}},             // +inf, -inf shared: NaN row
      {2, {{0, 1, 0}, {0, 3, 1}}},             // every column -inf: NaN row
      {1, {{0, 0, 0}}},                        // l = 1, +inf: 1
      {1, {{0, 1, 0}}},                        // l = 1, -inf: NaN row
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    Task task;
    task.domain_vector = {0.2, 0.3, 0.5};
    task.num_choices = cases[c].l;
    const Matrix expected =
        FullLogNumeratorTruthMatrix(task, cases[c].answers, qualities, 0.0);
    bool any_nan = false;
    for (double v : expected.data()) any_nan |= std::isnan(v);
    // The step-1 finiteness contract aborts on a NaN row, as it did for the
    // full form; only the finite cases run in a checked build.
    if (kDebugChecks && any_nan) continue;
    Matrix got;
    ComputeTruthMatrixInto(task, cases[c].answers, qualities, 0.0, &got);
    for (size_t k = 0; k < 3; ++k) {
      for (size_t j = 0; j < task.num_choices; ++j) {
        if (std::isnan(expected(k, j))) {
          EXPECT_TRUE(std::isnan(got(k, j))) << "row " << k << " col " << j;
        } else {
          ASSERT_TRUE(std::isfinite(got(k, j))) << "row " << k << " col " << j;
          EXPECT_NEAR(got(k, j), expected(k, j), 1e-12)
              << "row " << k << " col " << j;
        }
      }
    }
    // Row 2 has no extreme quality: always finite.
    for (size_t j = 0; j < task.num_choices; ++j) {
      EXPECT_TRUE(std::isfinite(got(2, j)));
    }
  }
}

TEST(TruthInferenceTest, UnansweredTasksHoldThePriorBitwise) {
  // 40 tasks over three chunks; only tasks 3, 4 and 20 get answers, so
  // chunk 1 (tasks 16-31) mixes answered and unanswered tasks and chunk 2
  // (tasks 32-39) holds only unanswered ones.
  const size_t n = 40, m = 4;
  Rng rng(77);
  std::vector<Task> tasks(n);
  for (size_t i = 0; i < n; ++i) {
    tasks[i].domain_vector = rng.Dirichlet(m, 0.5);
    tasks[i].num_choices = 2 + i % 4;
  }
  const std::vector<Answer> answers = {
      {3, 0, 1}, {4, 1, 0}, {3, 1, 0}, {20, 2, 1}, {20, 0, 0}};
  const IncrementalTruthInference prior(tasks);

  IncrementalTruthInference engine(tasks);
  for (const Answer& answer : answers) {
    ASSERT_TRUE(
        engine.OnAnswer(answer.worker, answer.task, answer.choice).ok());
  }
  // Published chunks: the pass must copy the ones it writes and keep the
  // one it does not.
  const auto published = engine.SharePosteriors();
  ThreadPool pool(2);
  engine.RunFullInference(&pool);
  EXPECT_EQ(&engine.task_truth(33), &(*published[2])[1].truth);
  EXPECT_NE(&engine.task_truth(20), &(*published[1])[4].truth);

  const TruthInferenceResult batch = TruthInference().Run(tasks, 3, answers);
  for (size_t i = 0; i < n; ++i) {
    if (i == 3 || i == 4 || i == 20) continue;
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_TRUE(BitEqual(engine.truth_matrix(i), prior.truth_matrix(i)));
    EXPECT_TRUE(BitEqual(engine.task_truth(i), prior.task_truth(i)));
    EXPECT_TRUE(BitEqual(batch.truth_matrices[i], prior.truth_matrix(i)));
    EXPECT_TRUE(BitEqual(batch.task_truth[i], prior.task_truth(i)));
  }
}

}  // namespace
}  // namespace docs::core
