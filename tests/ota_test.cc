#include <gtest/gtest.h>

#include <cmath>

#include "common/math_utils.h"
#include "common/rng.h"
#include "core/task_assignment.h"

namespace docs::core {
namespace {

// Random small OTA instance: tasks with random domain vectors and truth
// matrices, plus a random worker quality vector.
struct OtaInstance {
  std::vector<Task> tasks;
  std::vector<Matrix> matrices;
  std::vector<std::vector<double>> truths;
  std::vector<double> worker_quality;
};

OtaInstance MakeInstance(size_t n, size_t m, size_t max_choices, Rng& rng) {
  OtaInstance instance;
  for (size_t i = 0; i < n; ++i) {
    Task task;
    task.domain_vector = rng.Dirichlet(m, 1.0);
    task.num_choices = 2 + rng.UniformInt(max_choices - 1);
    Matrix truth_matrix(m, task.num_choices, 0.0);
    for (size_t k = 0; k < m; ++k) {
      truth_matrix.SetRow(k, rng.Dirichlet(task.num_choices, 1.0));
    }
    std::vector<double> s = truth_matrix.LeftMultiply(task.domain_vector);
    NormalizeInPlace(s);
    instance.tasks.push_back(std::move(task));
    instance.matrices.push_back(std::move(truth_matrix));
    instance.truths.push_back(std::move(s));
  }
  instance.worker_quality.resize(m);
  for (auto& q : instance.worker_quality) q = rng.UniformDoubleRange(0.3, 0.95);
  return instance;
}

TEST(Theorem2Test, AnswerProbabilitiesSumToOne) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    auto instance = MakeInstance(1, 3 + rng.UniformInt(3), 4, rng);
    double total = 0.0;
    for (size_t a = 0; a < instance.tasks[0].num_choices; ++a) {
      const double pa = AnswerProbability(instance.tasks[0],
                                          instance.matrices[0],
                                          instance.worker_quality, a);
      EXPECT_GE(pa, 0.0);
      total += pa;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Theorem2Test, ExpertPredictsCurrentTruth) {
  // With an (almost) perfect worker and a confident matrix, the predicted
  // answer distribution concentrates on the current truth.
  Task task;
  task.domain_vector = {1.0};
  task.num_choices = 2;
  Matrix truth_matrix(1, 2, 0.0);
  truth_matrix.SetRow(0, {0.95, 0.05});
  std::vector<double> quality = {0.99};
  const double p0 = AnswerProbability(task, truth_matrix, quality, 0, 0.001);
  EXPECT_GT(p0, 0.9);
}

TEST(Theorem3Test, UpdatedRowsAreDistributions) {
  Rng rng(103);
  auto instance = MakeInstance(1, 4, 4, rng);
  for (size_t a = 0; a < instance.tasks[0].num_choices; ++a) {
    Matrix updated = UpdatedTruthMatrix(instance.tasks[0], instance.matrices[0],
                                        instance.worker_quality, a);
    for (size_t k = 0; k < updated.rows(); ++k) {
      EXPECT_TRUE(IsDistribution(updated.Row(k), 1e-9));
    }
  }
}

TEST(Theorem3Test, MatchesManualBayesUpdate) {
  Task task;
  task.domain_vector = {1.0};
  task.num_choices = 2;
  Matrix truth_matrix(1, 2, 0.0);
  truth_matrix.SetRow(0, {0.6, 0.4});
  std::vector<double> quality = {0.8};
  Matrix updated = UpdatedTruthMatrix(task, truth_matrix, quality, 0, 0.001);
  // Posterior ∝ [0.6*0.8, 0.4*0.2] = [0.48, 0.08] -> [6/7, 1/7].
  EXPECT_NEAR(updated(0, 0), 6.0 / 7.0, 1e-9);
  EXPECT_NEAR(updated(0, 1), 1.0 / 7.0, 1e-9);
}

TEST(Theorem3Test, AnswerFromExpertMovesTruthMoreThanFromNovice) {
  Task task;
  task.domain_vector = {1.0};
  task.num_choices = 2;
  Matrix truth_matrix(1, 2, 0.5);
  std::vector<double> expert = {0.95};
  std::vector<double> novice = {0.55};
  Matrix by_expert = UpdatedTruthMatrix(task, truth_matrix, expert, 0);
  Matrix by_novice = UpdatedTruthMatrix(task, truth_matrix, novice, 0);
  EXPECT_GT(by_expert(0, 0), by_novice(0, 0));
}

TEST(BenefitTest, ConfidentTaskHasTinyBenefit) {
  Task task;
  task.domain_vector = {1.0};
  task.num_choices = 2;
  Matrix confident(1, 2, 0.0);
  confident.SetRow(0, {0.99, 0.01});
  std::vector<double> s = {0.99, 0.01};
  Matrix ambiguous(1, 2, 0.5);
  std::vector<double> u = {0.5, 0.5};
  std::vector<double> quality = {0.9};
  const double benefit_confident = Benefit(task, confident, s, quality);
  const double benefit_ambiguous = Benefit(task, ambiguous, u, quality);
  EXPECT_GT(benefit_ambiguous, benefit_confident);
  EXPECT_LT(benefit_confident, 0.05);
}

TEST(BenefitTest, BetterMatchedWorkerYieldsHigherBenefit) {
  // Task fully in domain 0; worker A expert there, worker B not.
  Task task;
  task.domain_vector = {1.0, 0.0};
  task.num_choices = 2;
  Matrix truth_matrix(2, 2, 0.5);
  std::vector<double> s = {0.5, 0.5};
  std::vector<double> expert = {0.95, 0.5};
  std::vector<double> novice = {0.55, 0.95};
  EXPECT_GT(Benefit(task, truth_matrix, s, expert),
            Benefit(task, truth_matrix, s, novice));
}

TEST(BenefitTest, NonNegativeForCoherentSingleDomainModel) {
  // With a single domain the update is an exact Bayes step, so the expected
  // posterior entropy never exceeds the prior entropy (information never
  // hurts). With multiple domains and arbitrary M the bound need not hold,
  // which is why this test pins m = 1.
  Rng rng(107);
  for (int trial = 0; trial < 30; ++trial) {
    auto instance = MakeInstance(1, 1, 4, rng);
    EXPECT_GE(Benefit(instance.tasks[0], instance.matrices[0],
                      instance.truths[0], instance.worker_quality),
              -1e-9);
  }
}

TEST(BenefitTest, NegativeWhenTheFixedPriorContradictsAConfidentTruth) {
  // Def. 5 projects each answer through the fixed domain prior r, not the
  // posterior over domains, so B is not a mutual information and can go
  // negative (DESIGN.md §5). Here r = (0.5, 0.5), both rows of M are
  // confident in choice 0, and the worker is an expert in domain 0 and a
  // coin flip in domain 1. Through r she answers 1 about a quarter of the
  // time, and each such answer updates row 0 as if the expert gave it,
  // which drops ŝ to (0.745, 0.255): the expected posterior entropy exceeds
  // H(s). Both kernels agree to the bit.
  Task task;
  task.domain_vector = {0.5, 0.5};
  task.num_choices = 2;
  Matrix truth_matrix(2, 2, 0.0);
  truth_matrix.SetRow(0, {0.99, 0.01});
  truth_matrix.SetRow(1, {0.99, 0.01});
  const std::vector<double> s = {0.99, 0.01};
  const std::vector<double> quality = {0.99, 0.5};
  const double reference = Benefit(task, truth_matrix, s, quality, 0.01);
  BenefitScratch scratch;
  const double fused = Benefit(task, truth_matrix, s, quality, 0.01, &scratch);
  EXPECT_LT(reference, 0.0);
  EXPECT_LT(fused, 0.0);
  EXPECT_EQ(reference, fused);
  EXPECT_NEAR(reference, -0.115057, 1e-6);
}

// --- Theorem 4: additivity of the set benefit --------------------------------

class Theorem4Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem4Test, SetBenefitEqualsSumOfIndividualBenefits) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 3);
  const size_t n = 2 + rng.UniformInt(3);  // 2-4 tasks
  auto instance = MakeInstance(n, 3, 3, rng);
  std::vector<size_t> subset(n);
  for (size_t i = 0; i < n; ++i) subset[i] = i;

  const double brute = BenefitOfSetBruteForce(
      instance.tasks, instance.matrices, instance.truths, subset,
      instance.worker_quality);
  double additive = 0.0;
  for (size_t i = 0; i < n; ++i) {
    additive += Benefit(instance.tasks[i], instance.matrices[i],
                        instance.truths[i], instance.worker_quality);
  }
  EXPECT_NEAR(brute, additive, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, Theorem4Test,
                         ::testing::Range(0, 25));

// --- Top-k selection ---------------------------------------------------------

TEST(TaskAssignerTest, SelectsHighestBenefitTasks) {
  Rng rng(109);
  auto instance = MakeInstance(30, 4, 3, rng);
  std::vector<uint8_t> eligible(30, 1);
  TaskAssigner assigner;
  auto selected = assigner.SelectTopK(instance.tasks, instance.matrices,
                                      instance.truths, instance.worker_quality,
                                      eligible, 5);
  ASSERT_EQ(selected.size(), 5u);
  // Verify against a full sort.
  std::vector<double> benefits(30);
  for (size_t i = 0; i < 30; ++i) {
    benefits[i] = Benefit(instance.tasks[i], instance.matrices[i],
                          instance.truths[i], instance.worker_quality);
  }
  double worst_selected = 1e9;
  for (size_t idx : selected) worst_selected = std::min(worst_selected, benefits[idx]);
  size_t better = 0;
  for (size_t i = 0; i < 30; ++i) {
    if (benefits[i] > worst_selected + 1e-12) ++better;
  }
  EXPECT_LE(better, 5u);
  // Returned in decreasing benefit order.
  for (size_t i = 1; i < selected.size(); ++i) {
    EXPECT_GE(benefits[selected[i - 1]], benefits[selected[i]] - 1e-12);
  }
}

TEST(TaskAssignerTest, RespectsEligibility) {
  Rng rng(111);
  auto instance = MakeInstance(10, 3, 3, rng);
  std::vector<uint8_t> eligible(10, 0);
  eligible[2] = eligible[7] = 1;
  TaskAssigner assigner;
  auto selected = assigner.SelectTopK(instance.tasks, instance.matrices,
                                      instance.truths, instance.worker_quality,
                                      eligible, 5);
  ASSERT_EQ(selected.size(), 2u);
  for (size_t idx : selected) {
    EXPECT_TRUE(idx == 2 || idx == 7);
  }
}

TEST(TaskAssignerTest, EmptyEligibilityReturnsNothing) {
  Rng rng(113);
  auto instance = MakeInstance(5, 3, 3, rng);
  std::vector<uint8_t> eligible(5, 0);
  TaskAssigner assigner;
  EXPECT_TRUE(assigner
                  .SelectTopK(instance.tasks, instance.matrices,
                              instance.truths, instance.worker_quality,
                              eligible, 3)
                  .empty());
}

TEST(TaskAssignerTest, SelectionIsDistinct) {
  Rng rng(115);
  auto instance = MakeInstance(20, 3, 3, rng);
  std::vector<uint8_t> eligible(20, 1);
  TaskAssigner assigner;
  auto selected = assigner.SelectTopK(instance.tasks, instance.matrices,
                                      instance.truths, instance.worker_quality,
                                      eligible, 20);
  std::vector<uint8_t> seen(20, 0);
  for (size_t idx : selected) {
    EXPECT_FALSE(seen[idx]);
    seen[idx] = 1;
  }
  EXPECT_EQ(selected.size(), 20u);
}

// --- Fused kernel: bit-exact against the allocating reference ----------------

TEST(FusedKernelTest, MatchesReferenceBitForBit) {
  // The fused scratch-arena kernel replays the reference's floating-point
  // operations in the same order, so the contract is exact equality of the
  // doubles — not a tolerance band.
  Rng rng(211);
  BenefitScratch scratch;
  for (int trial = 0; trial < 40; ++trial) {
    auto instance = MakeInstance(6, 2 + rng.UniformInt(6), 5, rng);
    for (size_t i = 0; i < instance.tasks.size(); ++i) {
      const double reference_entropy = ExpectedPosteriorEntropy(
          instance.tasks[i], instance.matrices[i], instance.worker_quality);
      const double fused_entropy = ExpectedPosteriorEntropy(
          instance.tasks[i], instance.matrices[i], instance.worker_quality,
          0.01, &scratch);
      EXPECT_EQ(reference_entropy, fused_entropy) << "trial " << trial;

      const double reference_benefit =
          Benefit(instance.tasks[i], instance.matrices[i], instance.truths[i],
                  instance.worker_quality);
      const double fused_benefit =
          Benefit(instance.tasks[i], instance.matrices[i], instance.truths[i],
                  instance.worker_quality, 0.01, &scratch);
      EXPECT_EQ(reference_benefit, fused_benefit) << "trial " << trial;
    }
  }
}

TEST(FusedKernelTest, MatchesReferenceOnSparseDomainVectors) {
  // Zeroed domain-vector entries hit the r_k == 0 skip in both kernels; the
  // skip must be bitwise-neutral (adding +0.0 vs. not adding at all).
  Rng rng(223);
  BenefitScratch scratch;
  for (int trial = 0; trial < 20; ++trial) {
    auto instance = MakeInstance(4, 5, 4, rng);
    for (auto& task : instance.tasks) {
      task.domain_vector[rng.UniformInt(5)] = 0.0;
      task.domain_vector[rng.UniformInt(5)] = 0.0;
      NormalizeInPlace(task.domain_vector);
    }
    for (size_t i = 0; i < instance.tasks.size(); ++i) {
      EXPECT_EQ(Benefit(instance.tasks[i], instance.matrices[i],
                        instance.truths[i], instance.worker_quality),
                Benefit(instance.tasks[i], instance.matrices[i],
                        instance.truths[i], instance.worker_quality, 0.01,
                        &scratch))
          << "trial " << trial;
    }
  }
}

TEST(FusedKernelTest, MatchesReferenceOnDegenerateMatrix) {
  // An all-zero truth-matrix row drives Theorem 3's denominator to zero;
  // both kernels must fall back to the same uniform posterior.
  Task task;
  task.domain_vector = {0.5, 0.5};
  task.num_choices = 3;
  Matrix truth_matrix(2, 3, 0.0);
  truth_matrix.SetRow(0, {0.6, 0.3, 0.1});  // row 1 stays all-zero
  std::vector<double> truth = {0.5, 0.3, 0.2};
  std::vector<double> quality = {0.8, 0.7};
  BenefitScratch scratch;
  EXPECT_EQ(Benefit(task, truth_matrix, truth, quality),
            Benefit(task, truth_matrix, truth, quality, 0.01, &scratch));
}

TEST(TaskAssignerDeathTest, RejectsMismatchedEligibilityVector) {
  // Regression: SelectTopK indexes eligible[], matrices[] and truths[] by
  // task id; a short parallel array used to be an out-of-bounds read.
  Rng rng(7);
  auto instance = MakeInstance(5, 3, 2, rng);
  std::vector<uint8_t> eligible(4, 1);  // one short
  TaskAssigner assigner;
  EXPECT_DEATH(assigner.SelectTopK(instance.tasks, instance.matrices,
                                   instance.truths, instance.worker_quality,
                                   eligible, 2),
               "eligible.size");
}

TEST(TaskAssignerDeathTest, RejectsOutOfRangeWorkerQuality) {
  // Eq. 5 qualities live in [0, 1]; a quality of 1.5 would silently inflate
  // every benefit score.
  Rng rng(8);
  auto instance = MakeInstance(5, 3, 2, rng);
  instance.worker_quality[1] = 1.5;
  std::vector<uint8_t> eligible(5, 1);
  TaskAssigner assigner;
  EXPECT_DEATH(assigner.SelectTopK(instance.tasks, instance.matrices,
                                   instance.truths, instance.worker_quality,
                                   eligible, 2),
               "OTA worker quality");
}

}  // namespace
}  // namespace docs::core
