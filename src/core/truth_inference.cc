#include "core/truth_inference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
    const std::vector<double>& quality = qualities[answer->worker].quality;
    for (size_t k = 0; k < m; ++k) {
      log_numer(k, answer->choice) +=
          AnswerLogOdds(quality[k], quality_clamp, l);
    }
  }
  SoftmaxRowsInto(log_numer, out);
}

double AnswerLogOdds(double quality, double quality_clamp, size_t l) {
  const double q = Clamp(quality, quality_clamp);
  return std::log(q) - std::log((1.0 - q) / WrongChoices(l));
}

void SoftmaxRowsInto(const Matrix& log_numer, Matrix* out) {
  const size_t m = log_numer.rows();
  const size_t l = log_numer.cols();
  out->Resize(m, l);
  if (l == 0) return;
  for (size_t k = 0; k < m; ++k) {
    const double* x = log_numer.data().data() + k * l;
    double* y = &(*out)(k, 0);
    size_t top = 0;
    for (size_t j = 1; j < l; ++j) {
      if (x[j] > x[top]) top = j;
    }
    const double max = x[top];
    // exp(max - max) is exactly 1 for a finite or +inf max. A -inf or NaN
    // max has no such term; LogSumExp made the whole row NaN there.
    double total = max > -std::numeric_limits<double>::infinity()
                       ? 1.0
                       : std::numeric_limits<double>::quiet_NaN();
    for (size_t j = 0; j < l; ++j) {
      if (j == top) continue;
      y[j] = std::exp(x[j] - max);
      total += y[j];
    }
    for (size_t j = 0; j < l; ++j) y[j] = (j == top ? 1.0 : y[j]) / total;
  }
  DOCS_DCHECK_FINITE(*out, "truth matrix (Eq. 3)");
}

void QualityLogTable::Build(const std::vector<Task>& tasks, size_t m,
                            const std::vector<WorkerQuality>& qualities,
                            double quality_clamp, ThreadPool* pool) {
  m_ = m;
  slot_of_l_.clear();
  choice_counts_.clear();
  num_slots_ = 0;
  for (const Task& task : tasks) {
    const size_t l = task.num_choices;
    if (l >= slot_of_l_.size()) slot_of_l_.resize(l + 1, SIZE_MAX);
    if (slot_of_l_[l] != SIZE_MAX) continue;
    slot_of_l_[l] = num_slots_++;
    choice_counts_.push_back(l);
  }
  const size_t num_workers = qualities.size();
  log_odds_.resize(num_workers * num_slots_ * m);
  ParallelFor(pool, num_workers, [&](size_t w) {
    DOCS_DCHECK(qualities[w].quality.size() == m)
        << "worker quality of the wrong dimension in the EM log table";
    for (size_t s = 0; s < num_slots_; ++s) {
      double* odds = &log_odds_[(w * num_slots_ + s) * m];
      for (size_t k = 0; k < m; ++k) {
        odds[k] = AnswerLogOdds(qualities[w].quality[k], quality_clamp,
                                choice_counts_[s]);
      }
    }
  });
}

void QualityLogTable::LogNumeratorInto(
    const Task& task, const std::vector<WorkerChoice>& task_answers,
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
  for (const WorkerChoice& answer : task_answers) {
    const double* odds = &log_odds_[(answer.worker * num_slots_ + slot) * m];
    for (size_t k = 0; k < m; ++k) log_numer(k, answer.choice) += odds[k];
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
  // The grouped lists hold 32-bit task, worker and choice indices.
  DOCS_CHECK_LT(n, size_t{UINT32_MAX});
  DOCS_CHECK_LT(num_workers, size_t{UINT32_MAX});

  // Answers grouped per task and per worker. Answers that cannot be
  // attributed (task or worker out of range, impossible choice) are dropped
  // once here so both EM steps see the same filtered view instead of
  // indexing out of bounds. Each worker's list is filled task-major, then
  // in submission order within a task: the order step 2 sums in.
  AnswerGroups groups;
  groups.of_task.resize(n);
  groups.of_worker.resize(num_workers);
  size_t stray = 0;
  for (const Answer& answer : answers) {
    if (answer.task >= n || answer.worker >= num_workers ||
        answer.choice >= tasks[answer.task].num_choices ||
        tasks[answer.task].domain_vector.size() != m) {
      ++stray;
      continue;
    }
    groups.of_task[answer.task].push_back(
        {static_cast<uint32_t>(answer.worker),
         static_cast<uint32_t>(answer.choice)});
  }
  if (stray > 0) {
    DOCS_LOG(Warning) << "TruthInference::Run ignored " << stray
                      << " out-of-range answer(s)";
  }
  for (size_t i = 0; i < n; ++i) {
    for (const WorkerChoice& answer : groups.of_task[i]) {
      groups.of_worker[answer.worker].push_back(
          {static_cast<uint32_t>(i), answer.choice});
    }
  }

  // Worker qualities: seeded from `initial_quality` or the default. A seed
  // is used only when both vectors span the m domains; step 2 reads the
  // seed's weight as well as its quality.
  std::vector<WorkerQuality> seeds(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    if (initial_quality != nullptr && w < initial_quality->size() &&
        (*initial_quality)[w].quality.size() == m &&
        (*initial_quality)[w].weight.size() == m) {
      CheckUnitInterval((*initial_quality)[w].quality, 1e-9,
                        "seeded worker quality (Eq. 5)");
      seeds[w] = (*initial_quality)[w];
    } else {
      seeds[w].quality.assign(m, options_.default_quality);
      seeds[w].weight.assign(m, 0.0);
    }
  }

  TruthInferenceResult result;
  result.truth_matrices.resize(n);
  EmWorkspace work;
  Iterate(tasks, groups, seeds, pool, &work, &result.truth_matrices);
  result.task_truth = std::move(work.task_truth);
  result.worker_quality = std::move(work.quality);
  result.delta_history = std::move(work.delta_history);
  result.iterations_run = work.iterations_run;

  // Tasks without answers hold the prior: step 1 over no answers, the same
  // for every iteration, so it is computed once here.
  if (result.iterations_run > 0) {
    static const std::vector<Answer> kNoAnswers;
    for (size_t i = 0; i < n; ++i) {
      if (!groups.of_task[i].empty()) continue;
      ComputeTruthMatrixInto(tasks[i], kNoAnswers, result.worker_quality,
                             options_.quality_clamp,
                             &result.truth_matrices[i]);
      result.truth_matrices[i].LeftMultiplyInto(tasks[i].domain_vector,
                                                &result.task_truth[i]);
      NormalizeInPlace(result.task_truth[i]);
    }
  }
  result.inferred_choice.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!result.task_truth[i].empty()) {
      result.inferred_choice[i] = ArgMax(result.task_truth[i]);
    }
  }
  return result;
}

void TruthInference::Iterate(const std::vector<Task>& tasks,
                             const AnswerGroups& answers,
                             const std::vector<WorkerQuality>& seeds,
                             ThreadPool* pool, EmWorkspace* work,
                             std::vector<Matrix>* truth_matrices) const {
  const size_t n = tasks.size();
  const size_t m = n == 0 ? 0 : tasks[0].domain_vector.size();
  const size_t num_workers = answers.of_worker.size();
  DOCS_CHECK_EQ(answers.of_task.size(), n);
  DOCS_CHECK_EQ(seeds.size(), num_workers);
  EmWorkspace& em = *work;
  const double prior = options_.quality_prior_strength;

  // Only answered tasks take part in step 1. An unanswered task's truth is
  // the same constant in every iteration, so its Delta term is exactly 0
  // and skipping it leaves the sum bit-identical; it still counts towards
  // the number of truth terms Delta averages over.
  em.answered.clear();
  size_t truth_terms = 0;
  for (size_t i = 0; i < n; ++i) {
    truth_terms += tasks[i].num_choices;
    if (!answers.of_task[i].empty()) {
      em.answered.push_back(static_cast<uint32_t>(i));
    }
  }
  em.task_truth.resize(n);
  em.prev_truth.resize(n);
  em.quality = seeds;
  em.prev_quality = seeds;

  // Step 2's denominators sum r over a worker's answers only, so they are
  // the same in every iteration: summed once per pass, in the order the
  // per-iteration sum used.
  em.mass.assign(num_workers * m, 0.0);
  em.evidence.resize(num_workers * m);
  em.overall_mass.resize(num_workers);
  ParallelFor(pool, num_workers, [&](size_t w) {
    double* mass = &em.mass[w * m];
    for (const TaskChoice& answer : answers.of_worker[w]) {
      const std::vector<double>& r = tasks[answer.task].domain_vector;
      for (size_t k = 0; k < m; ++k) mass[k] += r[k];
    }
    double overall = prior;
    for (size_t k = 0; k < m; ++k) overall += mass[k] + seeds[w].weight[k];
    em.overall_mass[w] = overall;
  });

  // The previous iteration's truths and qualities are rotated by swap, not
  // copied: step 1 overwrites every answered task's truth and step 2 every
  // quality entry, so the stale contents a swap leaves are never read.
  em.delta_history.clear();
  em.iterations_run = 0;
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    std::swap(em.prev_truth, em.task_truth);

    // --- Step 1: infer the truth from qualities (Eq. 2-4). ----------------
    // Eq. 4's log-odds are taken once per (worker, domain, l) here instead
    // of once per answer; the sums are bit-identical to
    // ComputeTruthMatrixInto (see QualityLogTable). Each task owns its
    // result slots, so the parallel loop commutes with the sequential one
    // bit for bit.
    em.table.Build(tasks, m, em.quality, options_.quality_clamp, pool);
    ParallelFor(pool, em.answered.size(), [&](size_t a) {
      const size_t i = em.answered[a];
      thread_local Matrix log_numer;
      thread_local Matrix scratch;
      Matrix& matrix =
          truth_matrices != nullptr ? (*truth_matrices)[i] : scratch;
      em.table.LogNumeratorInto(tasks[i], answers.of_task[i], &log_numer);
      SoftmaxRowsInto(log_numer, &matrix);
      matrix.LeftMultiplyInto(tasks[i].domain_vector, &em.task_truth[i]);
      // The domain vector always sums to 1 for the wrapper-produced tasks,
      // but guard against callers passing sub-normalized vectors.
      NormalizeInPlace(em.task_truth[i]);
      DOCS_DCHECK_SIMPLEX(em.task_truth[i], 1e-6,
                          "inferred task truth (Eq. 4)");
    });

    // --- Step 2: estimate worker qualities from the truth (Eq. 5). --------
    // Parallel over workers: the Eq. 5 numerator/denominator of worker w sum
    // only w's own answers, accumulated in the same order as the sequential
    // task-major sweep — no cross-thread reduction is needed and the result
    // is identical for every thread count.
    std::swap(em.prev_quality, em.quality);
    ParallelFor(pool, num_workers, [&](size_t w) {
      double* numer = &em.evidence[w * m];
      const double* denom = &em.mass[w * m];
      std::fill(numer, numer + m, 0.0);
      for (const TaskChoice& answer : answers.of_worker[w]) {
        const std::vector<double>& r = tasks[answer.task].domain_vector;
        const double s_iv = em.task_truth[answer.task][answer.choice];
        for (size_t k = 0; k < m; ++k) numer[k] += r[k] * s_iv;
      }
      const WorkerQuality& seed = seeds[w];
      WorkerQuality& out = em.quality[w];
      // Hierarchical prior mean: the worker's overall accuracy pooled over
      // all domains (and her seed profile). Spammers are bad everywhere, so
      // a domain with little direct evidence borrows strength from the
      // worker's track record elsewhere instead of defaulting to a constant.
      double overall_numer = prior * options_.default_quality;
      for (size_t k = 0; k < m; ++k) {
        overall_numer += numer[k] + seed.quality[k] * seed.weight[k];
      }
      const double overall_quality =
          em.overall_mass[w] > 0.0 ? overall_numer / em.overall_mass[w]
                                   : options_.default_quality;
      for (size_t k = 0; k < m; ++k) {
        // Seed evidence counts at its stored weight; the hierarchical pull
        // has quality_prior_strength pseudo-counts.
        const double seed_mass = seed.weight[k];
        const double prior_numer =
            seed.quality[k] * seed_mass + overall_quality * prior;
        const double prior_mass = seed_mass + prior;
        const double total_mass = denom[k] + prior_mass;
        if (total_mass > 0.0) {
          out.quality[k] = (numer[k] + prior_numer) / total_mass;
        } else {
          // Pure paper formula (prior strength 0) with no data: keep seed.
          out.quality[k] = seed.quality[k];
        }
        out.weight[k] = denom[k] + seed_mass;
      }
      DOCS_DCHECK_UNIT_INTERVAL(out.quality, 1e-9, "worker quality (Eq. 5)");
    });

    // --- Convergence check (Delta of Section 6.3). -------------------------
    // Kept sequential: it is O(n l + |W| m) against the O(n m l R) steps
    // above, and a serial sum keeps the early-exit decision (and therefore
    // the iteration count) bit-identical to the historical behavior.
    double delta = 0.0;
    if (iter > 0) {
      double truth_change = 0.0;
      for (const uint32_t i : em.answered) {
        const std::vector<double>& now = em.task_truth[i];
        const std::vector<double>& before = em.prev_truth[i];
        for (size_t j = 0; j < now.size(); ++j) {
          truth_change += std::fabs(now[j] - before[j]);
        }
      }
      double quality_change = 0.0;
      for (size_t w = 0; w < num_workers; ++w) {
        for (size_t k = 0; k < m; ++k) {
          quality_change += std::fabs(em.quality[w].quality[k] -
                                      em.prev_quality[w].quality[k]);
        }
      }
      delta = (truth_terms > 0 ? truth_change / static_cast<double>(truth_terms)
                               : 0.0) +
              (num_workers * m > 0
                   ? quality_change / static_cast<double>(num_workers * m)
                   : 0.0);
      em.delta_history.push_back(delta);
    }
    em.iterations_run = iter + 1;
    if (iter > 0 && delta < options_.tolerance) break;
  }
}

}  // namespace docs::core
