#include "core/truth_inference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/parallel.h"

namespace docs::core {
namespace {

double Clamp(double q, double clamp) {
  return std::min(1.0 - clamp, std::max(clamp, q));
}

/// True when `answer` can be scored against a task with `m` domains and `l`
/// choices under `qualities` without indexing out of bounds.
bool AnswerInBounds(const Answer& answer,
                    const std::vector<WorkerQuality>& qualities, size_t m,
                    size_t l) {
  return answer.worker < qualities.size() &&
         qualities[answer.worker].quality.size() == m && answer.choice < l;
}

/// The l - 1 wrong choices Eq. 4 spreads 1 - q over (1 for l <= 1).
double WrongChoices(size_t l) { return static_cast<double>(l > 1 ? l - 1 : 1); }

}  // namespace

Matrix ComputeTruthMatrix(const Task& task,
                          const std::vector<Answer>& task_answers,
                          const std::vector<WorkerQuality>& qualities,
                          double quality_clamp, size_t* skipped_answers) {
  Matrix truth_matrix;
  ComputeTruthMatrixInto(task, task_answers, qualities, quality_clamp,
                         &truth_matrix, skipped_answers);
  return truth_matrix;
}

void ComputeTruthMatrixInto(const Task& task,
                            const std::vector<Answer>& task_answers,
                            const std::vector<WorkerQuality>& qualities,
                            double quality_clamp, Matrix* out,
                            size_t* skipped_answers) {
  const size_t m = task.domain_vector.size();
  const size_t l = task.num_choices;
  // Per-thread scratch: this runs inside ParallelFor bodies. The buffers
  // carry no state across calls (valid is rebuilt, log_numer zeroed), so
  // reuse cannot affect the result.
  thread_local std::vector<const Answer*> valid;
  thread_local Matrix log_numer;
  // Stray answers (worker unknown to `qualities`, mismatched quality
  // dimension, out-of-range choice) are dropped up front: the baselines feed
  // this function caller-supplied answer lists.
  valid.clear();
  valid.reserve(task_answers.size());
  size_t skipped = 0;
  for (const Answer& answer : task_answers) {
    if (AnswerInBounds(answer, qualities, m, l)) {
      valid.push_back(&answer);
    } else {
      ++skipped;
    }
  }
  if (skipped_answers != nullptr) *skipped_answers = skipped;

  log_numer.Resize(m, l);
  log_numer.Fill(0.0);
  for (const Answer* answer : valid) {
    for (size_t k = 0; k < m; ++k) {
      const double q =
          Clamp(qualities[answer->worker].quality[k], quality_clamp);
      const double log_correct = std::log(q);
      const double log_wrong = std::log((1.0 - q) / WrongChoices(l));
      for (size_t j = 0; j < l; ++j) {
        log_numer(k, j) += (answer->choice == j) ? log_correct : log_wrong;
      }
    }
  }
  SoftmaxRowsInto(log_numer, out);
}

void SoftmaxRowsInto(const Matrix& log_numer, Matrix* out) {
  const size_t m = log_numer.rows();
  const size_t l = log_numer.cols();
  out->Resize(m, l);
  // Per-thread scratch (this runs inside the EM ParallelFor fan-out); the
  // row only carries one domain's intermediates, so reuse cannot leak.
  thread_local std::vector<double> row;
  row.resize(l);
  for (size_t k = 0; k < m; ++k) {
    for (size_t j = 0; j < l; ++j) row[j] = log_numer(k, j);
    const double lse = LogSumExp(row);
    for (size_t j = 0; j < l; ++j) (*out)(k, j) = std::exp(row[j] - lse);
  }
  DOCS_DCHECK_FINITE(*out, "truth matrix (Eq. 3)");
}

void QualityLogTable::Build(const std::vector<Task>& tasks, size_t m,
                            const std::vector<WorkerQuality>& qualities,
                            double quality_clamp, ThreadPool* pool) {
  m_ = m;
  slot_of_l_.clear();
  num_slots_ = 0;
  std::vector<size_t> choice_counts;
  for (const Task& task : tasks) {
    const size_t l = task.num_choices;
    if (l >= slot_of_l_.size()) slot_of_l_.resize(l + 1, SIZE_MAX);
    if (slot_of_l_[l] != SIZE_MAX) continue;
    slot_of_l_[l] = num_slots_++;
    choice_counts.push_back(l);
  }
  const size_t num_workers = qualities.size();
  log_correct_.resize(num_workers * m);
  log_wrong_.resize(num_workers * num_slots_ * m);
  ParallelFor(pool, num_workers, [&](size_t w) {
    DOCS_DCHECK(qualities[w].quality.size() == m)
        << "worker quality of the wrong dimension in the EM log table";
    for (size_t k = 0; k < m; ++k) {
      const double q = Clamp(qualities[w].quality[k], quality_clamp);
      log_correct_[w * m + k] = std::log(q);
      for (size_t s = 0; s < num_slots_; ++s) {
        log_wrong_[(w * num_slots_ + s) * m + k] =
            std::log((1.0 - q) / WrongChoices(choice_counts[s]));
      }
    }
  });
}

void QualityLogTable::LogNumeratorInto(const Task& task,
                                       const std::vector<Answer>& task_answers,
                                       Matrix* out) const {
  const size_t m = task.domain_vector.size();
  const size_t l = task.num_choices;
  Matrix& log_numer = *out;
  log_numer.Resize(m, l);
  log_numer.Fill(0.0);
  if (task_answers.empty()) return;
  DOCS_DCHECK(m == m_ && l < slot_of_l_.size() && slot_of_l_[l] != SIZE_MAX)
      << "task shape " << m << " x " << l << " missing from the EM log table";
  const size_t slot = slot_of_l_[l];
  for (const Answer& answer : task_answers) {
    const double* log_correct = &log_correct_[answer.worker * m];
    const double* log_wrong =
        &log_wrong_[(answer.worker * num_slots_ + slot) * m];
    for (size_t k = 0; k < m; ++k) {
      for (size_t j = 0; j < l; ++j) {
        log_numer(k, j) += (answer.choice == j) ? log_correct[k] : log_wrong[k];
      }
    }
  }
}

std::vector<WorkerQuality> InitializeQualityFromGolden(
    const std::vector<Task>& tasks, size_t num_workers,
    const std::vector<Answer>& answers,
    const std::vector<size_t>& golden_tasks,
    const std::vector<size_t>& golden_truth, double default_quality,
    double smoothing, size_t* skipped_answers) {
  CheckUnitInterval(default_quality, 0.0, "default quality");
  DOCS_CHECK_GE(smoothing, 0.0) << "negative smoothing pseudo-counts";
  const size_t m = tasks.empty() ? 0 : tasks[0].domain_vector.size();
  // Map task -> golden truth for O(1) membership tests. golden_tasks and
  // golden_truth are parallel arrays: entries past the shorter one have no
  // counterpart and are dropped (never read out of bounds), as are golden
  // indices outside the task list.
  std::vector<int> truth_of_task(tasks.size(), -1);
  const size_t golden_n = std::min(golden_tasks.size(), golden_truth.size());
  size_t skipped = golden_tasks.size() - golden_n;
  for (size_t g = 0; g < golden_n; ++g) {
    if (golden_tasks[g] >= tasks.size()) continue;
    truth_of_task[golden_tasks[g]] = static_cast<int>(golden_truth[g]);
  }

  std::vector<WorkerQuality> result(num_workers);
  std::vector<std::vector<double>> correct_mass(
      num_workers, std::vector<double>(m, 0.0));
  std::vector<std::vector<double>> total_mass(num_workers,
                                              std::vector<double>(m, 0.0));
  for (const Answer& answer : answers) {
    if (answer.task >= tasks.size() || answer.worker >= num_workers ||
        tasks[answer.task].domain_vector.size() != m) {
      ++skipped;
      continue;
    }
    const int truth = truth_of_task[answer.task];
    if (truth < 0) continue;
    const auto& r = tasks[answer.task].domain_vector;
    const bool correct = answer.choice == static_cast<size_t>(truth);
    for (size_t k = 0; k < m; ++k) {
      total_mass[answer.worker][k] += r[k];
      if (correct) correct_mass[answer.worker][k] += r[k];
    }
  }
  if (skipped_answers != nullptr) *skipped_answers = skipped;
  for (size_t w = 0; w < num_workers; ++w) {
    result[w].quality.resize(m);
    result[w].weight.resize(m);
    for (size_t k = 0; k < m; ++k) {
      // With smoothing == 0 and no golden evidence the ratio would be 0/0;
      // fall back to the default rather than minting a NaN quality.
      const double mass = total_mass[w][k] + smoothing;
      result[w].quality[k] =
          mass > 0.0
              ? (correct_mass[w][k] + smoothing * default_quality) / mass
              : default_quality;
      result[w].weight[k] = total_mass[w][k];
    }
    DOCS_DCHECK_UNIT_INTERVAL(result[w].quality, 1e-9,
                              "golden-seeded worker quality");
  }
  return result;
}

TruthInference::TruthInference(TruthInferenceOptions options)
    : options_(options) {}

TruthInferenceResult TruthInference::Run(
    const std::vector<Task>& tasks, size_t num_workers,
    const std::vector<Answer>& answers,
    const std::vector<WorkerQuality>* initial_quality) const {
  const size_t threads = EffectiveThreadCount(options_.num_threads);
  if (threads > 1 &&
      (pool_ == nullptr || pool_->num_threads() != threads)) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return Run(tasks, num_workers, answers, initial_quality,
             threads > 1 ? pool_.get() : nullptr);
}

TruthInferenceResult TruthInference::Run(
    const std::vector<Task>& tasks, size_t num_workers,
    const std::vector<Answer>& answers,
    const std::vector<WorkerQuality>* initial_quality, ThreadPool* pool) const {
  const size_t n = tasks.size();
  const size_t m = n == 0 ? 0 : tasks[0].domain_vector.size();

  // Caller contracts (programming errors, not recoverable input): options in
  // range and every TI prior a valid domain vector (Eq. 1). Tasks whose
  // dimension differs from tasks[0] are tolerated (their answers are skipped
  // below), but each vector's entries must still be probabilities.
  CheckUnitInterval(options_.default_quality, 0.0, "default quality");
  DOCS_CHECK_GE(options_.quality_clamp, 0.0);
  DOCS_CHECK_LE(options_.quality_clamp, 0.5);
  for (const Task& task : tasks) {
    CheckUnitInterval(task.domain_vector, 1e-9,
                      "task domain vector (TI prior)");
  }

  TruthInferenceResult result;
  result.task_truth.resize(n);
  result.truth_matrices.resize(n);
  result.inferred_choice.assign(n, 0);

  // Per-task answer lists. Answers that cannot be attributed (task or worker
  // out of range, impossible choice) are dropped once here so both EM steps
  // see the same filtered view instead of indexing out of bounds.
  std::vector<std::vector<Answer>> answers_of_task(n);
  size_t stray = 0;
  for (const Answer& answer : answers) {
    if (answer.task >= n || answer.worker >= num_workers ||
        answer.choice >= tasks[answer.task].num_choices ||
        tasks[answer.task].domain_vector.size() != m) {
      ++stray;
      continue;
    }
    answers_of_task[answer.task].push_back(answer);
  }
  if (stray > 0) {
    DOCS_LOG(Warning) << "TruthInference::Run ignored " << stray
                      << " out-of-range answer(s)";
  }

  // Per-worker answer lists for step 2, in the same global order the
  // sequential sweep visits them (task-major, then submission order within a
  // task): each worker's evidence accumulates in exactly that order, so the
  // parallel per-worker reduction is bit-identical to the sequential one.
  struct TaskChoice {
    size_t task;
    size_t choice;
  };
  std::vector<std::vector<TaskChoice>> answers_of_worker(num_workers);
  for (size_t i = 0; i < n; ++i) {
    for (const Answer& answer : answers_of_task[i]) {
      answers_of_worker[answer.worker].push_back({i, answer.choice});
    }
  }

  // Worker qualities: seeded from `initial_quality` or the default.
  result.worker_quality.resize(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    // A seed is used only when both vectors span the m domains; step 2
    // reads the seed's weight as well as its quality.
    if (initial_quality != nullptr && w < initial_quality->size() &&
        (*initial_quality)[w].quality.size() == m &&
        (*initial_quality)[w].weight.size() == m) {
      CheckUnitInterval((*initial_quality)[w].quality, 1e-9,
                        "seeded worker quality (Eq. 5)");
      result.worker_quality[w] = (*initial_quality)[w];
    } else {
      result.worker_quality[w].quality.assign(m, options_.default_quality);
      result.worker_quality[w].weight.assign(m, 0.0);
    }
  }
  const std::vector<WorkerQuality> seeded_quality = result.worker_quality;

  // Previous-iteration snapshots for the convergence check. Both are rotated
  // by swap, not copied: step 1 overwrites every task_truth entry and step 2
  // every quality entry, so the stale contents left in `result` by a swap are
  // never read — only their storage is reused. Byte-identical to the
  // copy-based rotation (determinism_test covers this).
  std::vector<std::vector<double>> prev_truth(n);
  std::vector<WorkerQuality> prev_quality = result.worker_quality;
  QualityLogTable log_table;

  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // Rotate: prev_truth takes the last iteration's truth, and step 1 below
    // refills result.task_truth (through buffers recycled from two
    // iterations ago). On break the freshly written truth stays in `result`.
    std::swap(prev_truth, result.task_truth);

    // --- Step 1: infer the truth from qualities (Eq. 2-4). ----------------
    // The Eq. 4 logs are taken once per (worker, domain, l) here instead of
    // once per answer; the sums are bit-identical to ComputeTruthMatrixInto
    // (see QualityLogTable). Each task owns its result slots, so the
    // parallel loop commutes with the sequential one bit for bit.
    log_table.Build(tasks, m, result.worker_quality, options_.quality_clamp,
                    pool);
    ParallelFor(pool, n, [&](size_t i) {
      thread_local Matrix log_numer;
      log_table.LogNumeratorInto(tasks[i], answers_of_task[i], &log_numer);
      SoftmaxRowsInto(log_numer, &result.truth_matrices[i]);
      result.truth_matrices[i].LeftMultiplyInto(tasks[i].domain_vector,
                                                &result.task_truth[i]);
      // The domain vector always sums to 1 for the wrapper-produced tasks,
      // but guard against callers passing sub-normalized vectors.
      NormalizeInPlace(result.task_truth[i]);
      DOCS_DCHECK_SIMPLEX(result.task_truth[i], 1e-6,
                          "inferred task truth (Eq. 4)");
    });

    // --- Step 2: estimate worker qualities from the truth (Eq. 5). --------
    // Parallel over workers: the Eq. 5 numerator/denominator of worker w sum
    // only w's own answers, accumulated in the same order as the sequential
    // task-major sweep — no cross-thread reduction is needed and the result
    // is identical for every thread count.
    std::swap(prev_quality, result.worker_quality);
    ParallelFor(pool, num_workers, [&](size_t w) {
      std::vector<double> numer(m, 0.0);
      std::vector<double> denom(m, 0.0);
      for (const TaskChoice& tc : answers_of_worker[w]) {
        const auto& r = tasks[tc.task].domain_vector;
        const double s_iv = result.task_truth[tc.task][tc.choice];
        for (size_t k = 0; k < m; ++k) {
          numer[k] += r[k] * s_iv;
          denom[k] += r[k];
        }
      }
      // Hierarchical prior mean: the worker's overall accuracy pooled over
      // all domains (and her seed profile). Spammers are bad everywhere, so
      // a domain with little direct evidence borrows strength from the
      // worker's track record elsewhere instead of defaulting to a constant.
      double overall_numer = options_.quality_prior_strength *
                             options_.default_quality;
      double overall_denom = options_.quality_prior_strength;
      for (size_t k = 0; k < m; ++k) {
        overall_numer += numer[k] +
                         seeded_quality[w].quality[k] *
                             seeded_quality[w].weight[k];
        overall_denom += denom[k] + seeded_quality[w].weight[k];
      }
      const double overall_quality =
          overall_denom > 0.0 ? overall_numer / overall_denom
                              : options_.default_quality;
      for (size_t k = 0; k < m; ++k) {
        // Seed evidence counts at its stored weight; the hierarchical pull
        // has quality_prior_strength pseudo-counts.
        const double seed_mass = seeded_quality[w].weight[k];
        const double prior_numer =
            seeded_quality[w].quality[k] * seed_mass +
            overall_quality * options_.quality_prior_strength;
        const double prior_mass =
            seed_mass + options_.quality_prior_strength;
        const double total_mass = denom[k] + prior_mass;
        if (total_mass > 0.0) {
          result.worker_quality[w].quality[k] =
              (numer[k] + prior_numer) / total_mass;
        } else {
          // Pure paper formula (prior strength 0) with no data: keep seed.
          result.worker_quality[w].quality[k] = seeded_quality[w].quality[k];
        }
        result.worker_quality[w].weight[k] = denom[k] + seed_mass;
      }
      DOCS_DCHECK_UNIT_INTERVAL(result.worker_quality[w].quality, 1e-9,
                                "worker quality (Eq. 5)");
    });

    // --- Convergence check (Delta of Section 6.3). -------------------------
    // Kept sequential: it is O(n l + |W| m) against the O(n m l R) steps
    // above, and a serial sum keeps the early-exit decision (and therefore
    // the iteration count) bit-identical to the historical behavior.
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
      delta = (truth_terms > 0 ? truth_change / static_cast<double>(truth_terms)
                               : 0.0) +
              (num_workers * m > 0
                   ? quality_change / static_cast<double>(num_workers * m)
                   : 0.0);
      result.delta_history.push_back(delta);
    }
    result.iterations_run = iter + 1;
    if (iter > 0 && delta < options_.tolerance) break;
  }

  for (size_t i = 0; i < n; ++i) {
    if (!result.task_truth[i].empty()) {
      result.inferred_choice[i] = ArgMax(result.task_truth[i]);
    }
  }
  return result;
}

}  // namespace docs::core
