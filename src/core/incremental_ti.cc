#include "core/incremental_ti.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_utils.h"

namespace docs::core {
namespace {

/// Orders a worker's sorted answer list by task.
bool TaskBelow(const TaskChoice& answer, size_t task) {
  return answer.task < task;
}

}  // namespace

IncrementalTruthInference::IncrementalTruthInference(
    std::vector<Task> tasks, TruthInferenceOptions options)
    : tasks_(std::move(tasks)), options_(options) {
  const size_t n = tasks_.size();
  // Answers are stored with 32-bit task ids.
  DOCS_CHECK_LT(n, size_t{UINT32_MAX});
  log_numerators_.reserve(n);
  answers_.of_task.resize(n);
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

void IncrementalTruthInference::UnshareChunk(size_t c) {
  if (!chunk_shared_[c]) return;
  chunks_[c] = std::make_shared<PosteriorChunk>(*chunks_[c]);
  chunk_shared_[c] = 0;
}

TaskPosterior& IncrementalTruthInference::MutablePosterior(size_t task) {
  const size_t c = task / kTasksPerChunk;
  UnshareChunk(c);
  return (*chunks_[c])[task % kTasksPerChunk];
}

std::vector<std::shared_ptr<const PosteriorChunk>>
IncrementalTruthInference::SharePosteriors() {
  std::fill(chunk_shared_.begin(), chunk_shared_.end(), 1);
  return {chunks_.begin(), chunks_.end()};
}

void IncrementalTruthInference::EnsureWorker(size_t worker) {
  // Answers are stored with 32-bit worker ids.
  DOCS_CHECK_LT(worker, size_t{UINT32_MAX});
  while (workers_.size() <= worker) {
    WorkerState state;
    const size_t m = tasks_.empty() ? 0 : tasks_[0].domain_vector.size();
    state.stats.quality.assign(m, options_.default_quality);
    state.stats.weight.assign(m, 0.0);
    seeds_.push_back(state.stats);
    workers_.push_back(std::move(state));
    // The worker's answer list starts empty: registration is O(m), not O(n).
    answers_.of_worker.emplace_back();
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
  seeds_[worker] = quality;
  ++workers_[worker].epoch;  // quality vector replaced
  return OkStatus();
}

bool IncrementalTruthInference::HasAnswered(size_t worker, size_t task) const {
  // Out-of-range indices (a forged wire request, a stale caller) must read
  // as "not answered", never out of bounds; a task index past tasks_.size()
  // simply cannot be in the sorted answer list.
  if (worker >= workers_.size()) return false;
  const std::vector<TaskChoice>& answered = answers_.of_worker[worker];
  const auto it =
      std::lower_bound(answered.begin(), answered.end(), task, TaskBelow);
  return it != answered.end() && it->task == task;
}

const std::vector<TaskChoice>& IncrementalTruthInference::worker_answers(
    size_t worker) const {
  static const std::vector<TaskChoice> kEmpty;
  if (worker >= workers_.size()) return kEmpty;
  return answers_.of_worker[worker];
}

void IncrementalTruthInference::ForEachAnswer(
    const std::function<void(const Answer&)>& visit) const {
  std::vector<uint32_t> seen(tasks_.size(), 0);
  for (const uint32_t task : answer_log_) {
    const WorkerChoice& answer = answers_.of_task[task][seen[task]++];
    visit({task, answer.worker, answer.choice});
  }
}

std::vector<Answer> IncrementalTruthInference::answers() const {
  std::vector<Answer> all;
  all.reserve(answer_log_.size());
  ForEachAnswer([&all](const Answer& answer) { all.push_back(answer); });
  return all;
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
  // The answer adds its log-odds to the chosen column only: Eq. 3's row
  // softmax ignores the per-row constant the other columns would share.
  TaskPosterior& post = MutablePosterior(task);
  Matrix& log_numer = log_numerators_[task];
  const std::vector<double>& quality = workers_[worker].stats.quality;
  for (size_t k = 0; k < m; ++k) {
    log_numer(k, choice) +=
        AnswerLogOdds(quality[k], options_.quality_clamp, l);
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
  for (const WorkerChoice& prior_answer : answers_.of_task[task]) {
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

  answers_.of_task[task].push_back(
      {static_cast<uint32_t>(worker), static_cast<uint32_t>(choice)});
  std::vector<TaskChoice>& answered = answers_.of_worker[worker];
  answered.insert(
      std::lower_bound(answered.begin(), answered.end(), task, TaskBelow),
      {static_cast<uint32_t>(task), static_cast<uint32_t>(choice)});
  answer_log_.push_back(static_cast<uint32_t>(task));

  // The task's posterior moved (step 1): the mutation log names it, so
  // benefit indexes repair it in place instead of rebuilding. The qualities
  // of the submitter and of every retro-updated prior worker moved (step 2):
  // epoch bumps, at most one each (one answer per (worker, task)).
  mutation_log_.Append(task);
  ++workers_[worker].epoch;
  for (const WorkerChoice& prior_answer : answers_.of_task[task]) {
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
  table.LogNumeratorInto(t, answers_.of_task[task], &log_numerators_[task]);
  SoftmaxRowsInto(log_numerators_[task], &post.truth_matrix);
  post.truth_matrix.LeftMultiplyInto(t.domain_vector, &post.truth);
  NormalizeInPlace(post.truth);
  DOCS_DCHECK_SIMPLEX(post.truth, 1e-6, "recomputed task truth (Eq. 4)");
}

void IncrementalTruthInference::RunFullInference(ThreadPool* pool) {
  // The pass reads the engine's own answer lists and seeds in place and
  // runs in em_, whose buffers outlive the pass.
  TruthInference(options_).Iterate(tasks_, answers_, seeds_, pool, &em_,
                                   nullptr);
  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].stats = em_.quality[w];
  }
  // O(1) invalidation: the batch re-run replaces every quality vector and
  // every posterior at once, so instead of walking all worker epochs (the
  // pre-§16 behavior) a single generation bump stales every benefit index.
  // The mutation log is trimmed too — the entries it held are subsumed by
  // the rebuilds the generation bump forces.
  ++generation_;
  mutation_log_.Clear();
  // Rebuild the incremental caches of the answered tasks so later OnAnswer
  // calls continue from the converged state, from one log table of the
  // converged qualities (the batch run's last table predates its final
  // step 2). An unanswered task still holds its prior, which is what the
  // rebuild would write, so it and a chunk of only such tasks are left
  // alone. Every task owns its cache slots, so the fan-out is bit-identical
  // to the sequential loop for any thread count; shared chunks are copied
  // here, before it.
  for (const uint32_t i : em_.answered) UnshareChunk(i / kTasksPerChunk);
  em_.table.Build(tasks_, tasks_.empty() ? 0 : tasks_[0].domain_vector.size(),
                  em_.quality, options_.quality_clamp, pool);
  ParallelFor(pool, em_.answered.size(),
              [&](size_t a) { RecomputeTask(em_.answered[a], em_.table); });
}

std::vector<size_t> IncrementalTruthInference::InferredChoices() const {
  std::vector<size_t> choices(tasks_.size(), 0);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (!task_truth(i).empty()) choices[i] = ArgMax(task_truth(i));
  }
  return choices;
}

}  // namespace docs::core
