#ifndef DOCS_CORE_INCREMENTAL_TI_H_
#define DOCS_CORE_INCREMENTAL_TI_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/mutation_log.h"
#include "core/truth_inference.h"
#include "core/types.h"

namespace docs::core {

/// One task's posterior: the truth matrix M^(i) and the truth s_i.
struct TaskPosterior {
  Matrix truth_matrix;
  std::vector<double> truth;
};

/// The posteriors of kTasksPerChunk consecutive tasks (fewer in the last).
using PosteriorChunk = std::vector<TaskPosterior>;

/// The incremental truth-inference engine of Section 4.2. It keeps, per task,
/// the log-numerator matrix M̂^(i) (Eq. 3's numerator), the normalized M^(i)
/// and the probabilistic truth s_i; and per worker the (q^w, u^w) statistics.
/// Each submitted answer is absorbed in O(m * |V(i)|):
///   step 1 updates only task t_i's parameters;
///   step 2 updates the submitting worker's quality and adjusts the quality
///          of every worker who answered t_i before (their s_{i,j} changed).
/// RunFullInference() re-runs the iterative algorithm over all stored answers
/// (DOCS does this every z = 100 submissions).
class IncrementalTruthInference {
 public:
  /// Tasks per posterior chunk, chosen by measurement (DESIGN.md §15).
  static constexpr size_t kTasksPerChunk = 16;

  /// Takes ownership of the task list (domain vectors + choice counts).
  explicit IncrementalTruthInference(std::vector<Task> tasks,
                                     TruthInferenceOptions options = {});

  size_t num_tasks() const { return tasks_.size(); }
  size_t num_workers() const { return workers_.size(); }
  size_t num_answers() const { return answer_log_.size(); }
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Calls `visit` on every absorbed answer in arrival order, rebuilt from
  /// the arrival log of task ids and the per-task lists (an answer is the
  /// c-th entry of its task's list when it is the c-th arrival for that
  /// task). O(answers) time and O(tasks) scratch.
  void ForEachAnswer(const std::function<void(const Answer&)>& visit) const;
  /// Every absorbed answer in arrival order, as a fresh vector.
  std::vector<Answer> answers() const;

  /// Grows the worker table to include `worker`, seeding new entries with
  /// the default quality. Called implicitly by OnAnswer.
  void EnsureWorker(size_t worker);

  /// Seeds/overrides a worker's quality (e.g. from golden tasks or the
  /// persistent WorkerStore). Also records it as the worker's seed for
  /// subsequent RunFullInference() calls. Rejects vectors whose dimension
  /// does not match the task domain count with InvalidArgument — a
  /// WorkerStore record written against a different domain count would
  /// otherwise index out of bounds inside OnAnswer.
  [[nodiscard]] Status SetWorkerQuality(size_t worker, const WorkerQuality& quality);

  /// Absorbs one answer with the O(m * |V(i)|) update policy.
  [[nodiscard]] Status OnAnswer(size_t worker, size_t task, size_t choice);

  /// Re-runs the iterative algorithm of Section 4.1 on all stored answers,
  /// starting from the seed qualities, and replaces the incremental state
  /// with the converged parameters. Executes on the caller's pool (ignoring
  /// options().num_threads), so a surrounding system serves every hot loop
  /// from one pool. `pool == nullptr` runs sequentially.
  void RunFullInference(ThreadPool* pool);

  const std::vector<double>& task_truth(size_t task) const {
    return posterior(task).truth;
  }
  const Matrix& truth_matrix(size_t task) const {
    return posterior(task).truth_matrix;
  }
  const WorkerQuality& worker_quality(size_t worker) const {
    return workers_[worker].stats;
  }
  /// The seed profile RunFullInference() restarts from (set by
  /// SetWorkerQuality, default quality otherwise).
  const WorkerQuality& worker_seed(size_t worker) const {
    return seeds_[worker];
  }
  /// True once `worker` answered `task` (workers answer a task at most once).
  /// Out-of-range worker or task indices read as "not answered" instead of
  /// reading out of bounds.
  bool HasAnswered(size_t worker, size_t task) const;

  /// `worker`'s answers by ascending task. Empty for unknown workers.
  const std::vector<TaskChoice>& worker_answers(size_t worker) const;

  /// Version tag of `worker`'s quality vector; starts at 1. Bumped whenever
  /// the quality estimate moves incrementally: her own submissions, the
  /// retro-update fan-out of other workers' submissions on shared tasks, and
  /// SetWorkerQuality reseeds. RunFullInference bumps generation() instead.
  uint64_t worker_epoch(size_t worker) const { return workers_[worker].epoch; }

  /// Global invalidation generation; starts at 1. Bumped once — a single
  /// counter increment, not a per-task or per-worker walk — by every
  /// RunFullInference, which replaces all posteriors and all quality vectors
  /// at once. Benefit indexes carry the generation they were built under
  /// and go stale the moment it moves (DESIGN.md §16).
  uint64_t generation() const { return generation_; }

  /// Targeted-repair feed for the per-worker benefit indexes (DESIGN.md
  /// §16): every task whose posterior moved incrementally (one OnAnswer
  /// each) is appended here, tagged with an absolute, monotonically growing
  /// sequence number. An index that recorded sequence c while fresh can
  /// catch up by repairing exactly the tasks in [c, mutation_log_end()); a
  /// cursor older than mutation_log_begin() means the log was trimmed (or a
  /// full inference cleared it) and the index must rebuild. Entries may name
  /// the same task repeatedly — repair is idempotent. A copy of the log
  /// shares its segments (a snapshot publish takes one).
  uint64_t mutation_log_begin() const { return mutation_log_.begin(); }
  uint64_t mutation_log_end() const { return mutation_log_.end(); }
  const MutationLog& mutation_log() const { return mutation_log_; }

  /// argmax_j s_{i,j} for every task.
  std::vector<size_t> InferredChoices() const;

  /// The posterior chunks by pointer, for a snapshot publish, all marked
  /// shared: the next write to a shared chunk (OnAnswer, or the rebuild of
  /// an answered task after RunFullInference) copies it first. The mark,
  /// not use_count(), decides.
  std::vector<std::shared_ptr<const PosteriorChunk>> SharePosteriors();

  const TruthInferenceOptions& options() const { return options_; }

 private:
  struct WorkerState {
    WorkerQuality stats;
    /// Quality-vector version tag; see worker_epoch().
    uint64_t epoch = 1;
  };

  /// Rebuilds M̂, M and s of an unshared `task` from scratch from `table`,
  /// the log table of the current qualities.
  void RecomputeTask(size_t task, const QualityLogTable& table);

  const TaskPosterior& posterior(size_t task) const {
    return (*chunks_[task / kTasksPerChunk])[task % kTasksPerChunk];
  }
  /// The task's posterior for writing: copies its chunk first if shared.
  TaskPosterior& MutablePosterior(size_t task);
  /// Chunk `c` holding the prior posteriors (uniform M^(i)) of its tasks.
  std::shared_ptr<PosteriorChunk> PriorChunk(size_t c) const;
  /// Replaces chunk `c` by a private copy if it is shared.
  void UnshareChunk(size_t c);

  std::vector<Task> tasks_;
  TruthInferenceOptions options_;
  /// M̂^(i) in log space, up to a per-row constant: each answer's log-odds
  /// summed into its chosen column (DESIGN.md §4).
  std::vector<Matrix> log_numerators_;
  /// {M^(i), s_i} by chunk, and which chunks are shared (SharePosteriors).
  std::vector<std::shared_ptr<PosteriorChunk>> chunks_;
  std::vector<uint8_t> chunk_shared_;
  uint64_t generation_ = 1;  // see generation()
  MutationLog mutation_log_;  // see mutation_log()
  /// The answers: the per-task lists (submission order) and the per-worker
  /// lists (ascending task) the EM pass reads in place, and the arrival
  /// order as one task id per answer (ForEachAnswer).
  AnswerGroups answers_;
  std::vector<uint32_t> answer_log_;
  std::vector<WorkerState> workers_;
  std::vector<WorkerQuality> seeds_;  // see worker_seed()
  /// RunFullInference's buffers, kept across passes.
  EmWorkspace em_;
  /// OnAnswer scratch (the facade serializes OnAnswer callers, so one
  /// buffer suffices): the s̃_i snapshot, reused across calls so the
  /// per-answer update is allocation-free.
  std::vector<double> old_truth_scratch_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_INCREMENTAL_TI_H_
