#include "core/incremental_ti.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_utils.h"

namespace docs::core {
namespace {

double Clamp(double q, double clamp) {
  return std::min(1.0 - clamp, std::max(clamp, q));
}

/// Mutation-log bound: past this many un-replayed entries a catching-up
/// benefit index would approach the cost of a rebuild anyway, so the log is
/// trimmed wholesale and stragglers rebuild (DESIGN.md §16).
constexpr size_t kMutationLogCapacity = 4096;

}  // namespace

IncrementalTruthInference::IncrementalTruthInference(
    std::vector<Task> tasks, TruthInferenceOptions options)
    : tasks_(std::move(tasks)), options_(options) {
  const size_t n = tasks_.size();
  log_numerators_.reserve(n);
  answers_of_task_.resize(n);
  for (const Task& task : tasks_) {
    CheckUnitInterval(task.domain_vector, 1e-9,
                      "task domain vector (incremental TI prior)");
    log_numerators_.emplace_back(task.domain_vector.size(), task.num_choices);
  }
  const size_t num_chunks = (n + kTasksPerChunk - 1) / kTasksPerChunk;
  for (size_t c = 0; c < num_chunks; ++c) chunks_.push_back(PriorChunk(c));
  chunk_shared_.assign(num_chunks, 0);
}

std::shared_ptr<PosteriorChunk> IncrementalTruthInference::PriorChunk(
    size_t c) const {
  const size_t begin = c * kTasksPerChunk;
  const size_t end = std::min(tasks_.size(), begin + kTasksPerChunk);
  auto chunk = std::make_shared<PosteriorChunk>(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const Task& task = tasks_[i];
    const size_t l = task.num_choices;
    TaskPosterior& post = (*chunk)[i - begin];
    post.truth_matrix = Matrix(task.domain_vector.size(), l,
                               l == 0 ? 0.0 : 1.0 / static_cast<double>(l));
    post.truth = post.truth_matrix.LeftMultiply(task.domain_vector);
    NormalizeInPlace(post.truth);
  }
  return chunk;
}

TaskPosterior& IncrementalTruthInference::MutablePosterior(size_t task) {
  const size_t c = task / kTasksPerChunk;
  if (chunk_shared_[c]) {
    chunks_[c] = std::make_shared<PosteriorChunk>(*chunks_[c]);
    chunk_shared_[c] = 0;
  }
  return (*chunks_[c])[task % kTasksPerChunk];
}

std::vector<std::shared_ptr<const PosteriorChunk>>
IncrementalTruthInference::SharePosteriors() {
  std::fill(chunk_shared_.begin(), chunk_shared_.end(), 1);
  return {chunks_.begin(), chunks_.end()};
}

void IncrementalTruthInference::EnsureWorker(size_t worker) {
  while (workers_.size() <= worker) {
    WorkerState state;
    const size_t m = tasks_.empty() ? 0 : tasks_[0].domain_vector.size();
    state.stats.quality.assign(m, options_.default_quality);
    state.stats.weight.assign(m, 0.0);
    state.seed = state.stats;
    // state.answered stays empty: registration is O(m), not O(n).
    workers_.push_back(std::move(state));
  }
}

Status IncrementalTruthInference::SetWorkerQuality(
    size_t worker, const WorkerQuality& quality) {
  const size_t m = tasks_.empty() ? 0 : tasks_[0].domain_vector.size();
  if (quality.quality.size() != m || quality.weight.size() != m) {
    return InvalidArgumentError(
        "worker quality dimension mismatch: got " +
        std::to_string(quality.quality.size()) + " qualities / " +
        std::to_string(quality.weight.size()) + " weights, tasks span " +
        std::to_string(m) + " domains");
  }
  // Value validation stays Status-grade: seeds arrive from stores and
  // checkpoints, so a corrupt record must be reportable, not a crash.
  for (size_t k = 0; k < m; ++k) {
    const double q = quality.quality[k];
    if (!std::isfinite(q) || q < -1e-9 || q > 1.0 + 1e-9) {
      return InvalidArgumentError("worker quality[" + std::to_string(k) +
                                  "] = " + std::to_string(q) +
                                  " outside [0, 1]");
    }
    const double weight = quality.weight[k];
    if (!std::isfinite(weight) || weight < 0.0) {
      return InvalidArgumentError("worker weight[" + std::to_string(k) +
                                  "] = " + std::to_string(weight) +
                                  " is not a finite non-negative mass");
    }
  }
  EnsureWorker(worker);
  workers_[worker].stats = quality;
  workers_[worker].seed = quality;
  ++workers_[worker].epoch;  // quality vector replaced
  return OkStatus();
}

bool IncrementalTruthInference::HasAnswered(size_t worker, size_t task) const {
  // Out-of-range indices (a forged wire request, a stale caller) must read
  // as "not answered", never out of bounds; a task index past tasks_.size()
  // simply cannot be in the sorted answered list.
  if (worker >= workers_.size()) return false;
  const std::vector<size_t>& answered = workers_[worker].answered;
  return std::binary_search(answered.begin(), answered.end(), task);
}

const std::vector<size_t>& IncrementalTruthInference::answered_tasks(
    size_t worker) const {
  static const std::vector<size_t> kEmpty;
  if (worker >= workers_.size()) return kEmpty;
  return workers_[worker].answered;
}

Status IncrementalTruthInference::OnAnswer(size_t worker, size_t task,
                                           size_t choice) {
  if (task >= tasks_.size()) return InvalidArgumentError("task out of range");
  if (choice >= tasks_[task].num_choices) {
    return InvalidArgumentError("choice out of range");
  }
  EnsureWorker(worker);
  if (HasAnswered(worker, task)) {
    return FailedPreconditionError("worker already answered this task");
  }

  const Task& t = tasks_[task];
  const size_t m = t.domain_vector.size();
  const size_t l = t.num_choices;
  // s̃_i snapshot into reusable scratch: the update below needs the truth
  // vector from before this answer.
  old_truth_scratch_.assign(task_truth(task).begin(), task_truth(task).end());
  const std::vector<double>& old_truth = old_truth_scratch_;

  // --- Step 1: update M̂^(i), M^(i) and s_i only. -------------------------
  TaskPosterior& post = MutablePosterior(task);
  Matrix& log_numer = log_numerators_[task];
  for (size_t k = 0; k < m; ++k) {
    const double q =
        Clamp(workers_[worker].stats.quality[k], options_.quality_clamp);
    const double log_correct = std::log(q);
    const double log_wrong =
        std::log((1.0 - q) / static_cast<double>(l > 1 ? l - 1 : 1));
    for (size_t j = 0; j < l; ++j) {
      log_numer(k, j) += (j == choice) ? log_correct : log_wrong;
    }
  }
  SoftmaxRowsInto(log_numer, &post.truth_matrix);
  post.truth_matrix.LeftMultiplyInto(t.domain_vector, &post.truth);
  NormalizeInPlace(post.truth);
  const std::vector<double>& new_truth = post.truth;

  // --- Step 2: update the qualities touched by this answer. ---------------
  // The effective mass behind a quality estimate is the accumulated weight
  // (seed weight + answered r-mass) plus the MAP prior pseudo-count; see
  // TruthInferenceOptions::quality_prior_strength.
  const double prior = options_.quality_prior_strength;
  // (1) The submitting worker w.
  WorkerQuality& wq = workers_[worker].stats;
  for (size_t k = 0; k < m; ++k) {
    const double rk = t.domain_vector[k];
    const double mass = wq.weight[k] + prior;
    const double denom = mass + rk;
    if (denom > 0.0) {
      wq.quality[k] =
          (wq.quality[k] * mass + new_truth[choice] * rk) / denom;
    }
    wq.weight[k] += rk;
  }
  DOCS_DCHECK_SIMPLEX(new_truth, 1e-6, "incremental task truth (Eq. 4)");
  DOCS_DCHECK_UNIT_INTERVAL(wq.quality, 1e-9,
                            "incremental worker quality (Eq. 5)");
  // (2) Every worker who answered this task before: their s_{i,j} moved from
  // s̃_{i,j} to s_{i,j}.
  for (const Answer& prior_answer : answers_of_task_[task]) {
    WorkerQuality& pq = workers_[prior_answer.worker].stats;
    const size_t j = prior_answer.choice;
    for (size_t k = 0; k < m; ++k) {
      const double rk = t.domain_vector[k];
      const double mass = pq.weight[k] + prior;
      if (mass <= 0.0 || rk == 0.0) continue;
      pq.quality[k] += (new_truth[j] - old_truth[j]) * rk / mass;
      // The retro-delta is a first-order correction, not a convex update:
      // across many answers the per-task telescoping sums can compound past
      // the probability range (and Eq. 4 then takes log of a negative
      // number). Clamp after every delta; RunFullInference replaces these
      // estimates with the exact batch values periodically.
      pq.quality[k] = std::clamp(pq.quality[k], 0.0, 1.0);
    }
  }

  Answer answer{task, worker, choice};
  answers_of_task_[task].push_back(answer);
  answers_.push_back(answer);
  std::vector<size_t>& answered = workers_[worker].answered;
  answered.insert(std::lower_bound(answered.begin(), answered.end(), task),
                  task);

  // The task's posterior moved (step 1): the mutation log names it, so
  // benefit indexes repair it in place instead of rebuilding. The qualities
  // of the submitter and of every retro-updated prior worker moved (step 2):
  // epoch bumps, at most one each (one answer per (worker, task)).
  if (mutation_log_.size() >= kMutationLogCapacity) {
    mutation_log_begin_ += mutation_log_.size();
    mutation_log_.clear();
  }
  mutation_log_.push_back(task);
  ++workers_[worker].epoch;
  for (const Answer& prior_answer : answers_of_task_[task]) {
    if (prior_answer.worker != worker) ++workers_[prior_answer.worker].epoch;
  }
  return OkStatus();
}

void IncrementalTruthInference::RecomputeTask(size_t task,
                                              const QualityLogTable& table) {
  DOCS_CHECK_LT(task, tasks_.size()) << "RecomputeTask on unknown task";
  DOCS_DCHECK(!chunk_shared_[task / kTasksPerChunk])
      << "RecomputeTask would copy a shared posterior chunk";
  const Task& t = tasks_[task];
  TaskPosterior& post = MutablePosterior(task);
  table.LogNumeratorInto(t, answers_of_task_[task], &log_numerators_[task]);
  SoftmaxRowsInto(log_numerators_[task], &post.truth_matrix);
  post.truth_matrix.LeftMultiplyInto(t.domain_vector, &post.truth);
  NormalizeInPlace(post.truth);
  DOCS_DCHECK_SIMPLEX(post.truth, 1e-6, "recomputed task truth (Eq. 4)");
}

void IncrementalTruthInference::RunFullInference(ThreadPool* pool) {
  std::vector<WorkerQuality> seeds;
  seeds.reserve(workers_.size());
  for (const auto& state : workers_) seeds.push_back(state.seed);

  TruthInference engine(options_);
  TruthInferenceResult result =
      engine.Run(tasks_, workers_.size(), answers_, &seeds, pool);

  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].stats = result.worker_quality[w];
  }
  // O(1) invalidation: the batch re-run replaces every quality vector and
  // every posterior at once, so instead of walking all worker epochs (the
  // pre-§16 behavior) a single generation bump stales every benefit index.
  // The mutation log is trimmed too — the entries it held are subsumed by
  // the rebuilds the generation bump forces.
  ++generation_;
  mutation_log_begin_ += mutation_log_.size();
  mutation_log_.clear();
  // Rebuild the incremental caches so later OnAnswer calls continue from the
  // converged state, from one log table of the converged qualities (the
  // batch run's last table predates its final step 2). Every task owns its
  // cache slots, so the fan-out is bit-identical to the sequential loop for
  // any thread count. Every task is rewritten in full, so a shared chunk is
  // replaced by fresh storage here, before the fan-out, instead of copied.
  for (size_t c = 0; c < chunks_.size(); ++c) {
    if (chunk_shared_[c]) chunks_[c] = PriorChunk(c);
  }
  std::fill(chunk_shared_.begin(), chunk_shared_.end(), 0);
  QualityLogTable table;
  table.Build(tasks_, tasks_.empty() ? 0 : tasks_[0].domain_vector.size(),
              result.worker_quality, options_.quality_clamp, pool);
  ParallelFor(pool, tasks_.size(), [&](size_t i) { RecomputeTask(i, table); });
}

std::vector<size_t> IncrementalTruthInference::InferredChoices() const {
  std::vector<size_t> choices(tasks_.size(), 0);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (!task_truth(i).empty()) choices[i] = ArgMax(task_truth(i));
  }
  return choices;
}

}  // namespace docs::core
