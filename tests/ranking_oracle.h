// Test-side ranking oracle shared by ranking_oracle_test and
// benefit_index_test (DESIGN.md §11, §16).
//
// Serving ranks tasks through one strategy: the per-worker benefit index
// with its scan fallback over the index's values, and the fused kernel.
// The oracle here scores every eligible task from the system's live
// inference state — the allocating reference kernel for kBenefit and
// kQualityBlind, H(s) for kUncertainty, r·q for kDomainMax — and orders the
// scores with SelectTopKFromScored. Serving must match it BITWISE.

#ifndef DOCS_TESTS_RANKING_ORACLE_H_
#define DOCS_TESTS_RANKING_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/math_utils.h"
#include "core/docs_system.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"

namespace docs::core::oracle {

inline constexpr SelectionRule kAllRules[] = {
    SelectionRule::kBenefit, SelectionRule::kDomainMax,
    SelectionRule::kUncertainty, SelectionRule::kQualityBlind};

inline std::vector<TaskInput> Inputs(const datasets::Dataset& dataset) {
  std::vector<TaskInput> inputs;
  for (const auto& task : dataset.tasks) {
    inputs.push_back({task.text, task.num_choices()});
  }
  return inputs;
}

/// Every task's score for `worker` under `rule`, computed from the system's
/// live inference state without the index or the fused kernel.
inline std::vector<double> ReferenceScores(const DocsSystem& system,
                                           size_t worker, SelectionRule rule) {
  const IncrementalTruthInference& inference = system.inference();
  const std::vector<Task>& tasks = system.tasks();
  std::vector<double> quality = inference.worker_quality(worker).quality;
  if (rule == SelectionRule::kQualityBlind) {
    double mean = 0.0;
    for (double q : quality) mean += q;
    mean /= std::max<size_t>(1, quality.size());
    std::fill(quality.begin(), quality.end(), mean);
  }
  const double clamp = TaskAssignerOptions{}.quality_clamp;
  std::vector<double> scores(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    switch (rule) {
      case SelectionRule::kBenefit:
      case SelectionRule::kQualityBlind:
        scores[i] = Benefit(tasks[i], inference.truth_matrix(i),
                            inference.task_truth(i), quality, clamp);
        break;
      case SelectionRule::kUncertainty:
        scores[i] = Entropy(inference.task_truth(i));
        break;
      case SelectionRule::kDomainMax: {
        double match = 0.0;
        for (size_t d = 0; d < quality.size(); ++d) {
          match += tasks[i].domain_vector[d] * quality[d];
        }
        scores[i] = match;
        break;
      }
    }
  }
  return scores;
}

/// The oracle's top k: tasks `worker` has not answered and `blocked` (when
/// given) does not mark, ordered by the shared PICK helper.
inline std::vector<size_t> ReferenceTopK(
    const DocsSystem& system, size_t worker, SelectionRule rule, size_t k,
    const std::vector<uint8_t>* blocked = nullptr) {
  const std::vector<double> scores = ReferenceScores(system, worker, rule);
  std::vector<ScoredTask> scored;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (system.inference().HasAnswered(worker, i)) continue;
    if (blocked != nullptr && (*blocked)[i]) continue;
    scored.push_back({i, scores[i]});
  }
  return SelectTopKFromScored(&scored, k);
}

inline uint64_t RequestTally(const DocsSystem& system) {
  return system.serving_counters().benefit_cache_request_hits +
         system.serving_counters().benefit_cache_request_misses;
}

/// Shares one synthetic KB across a suite's tests.
class OracleFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new kb::SyntheticKb(kb::BuildSyntheticKb());
  }
  static void TearDownTestSuite() {
    delete kb_;
    kb_ = nullptr;
  }

  /// A QA system that goes straight to OTA scoring, single-threaded, with
  /// no periodic re-inference.
  static DocsSystemOptions QuietOptions() {
    DocsSystemOptions options;
    options.golden_count = 0;
    options.reinfer_every = 0;
    options.num_threads = 1;
    return options;
  }

  static inline kb::SyntheticKb* kb_ = nullptr;
};

}  // namespace docs::core::oracle

#endif  // DOCS_TESTS_RANKING_ORACLE_H_
