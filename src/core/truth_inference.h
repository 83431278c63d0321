#ifndef DOCS_CORE_TRUTH_INFERENCE_H_
#define DOCS_CORE_TRUTH_INFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/parallel.h"
#include "core/types.h"

namespace docs::core {

struct TruthInferenceOptions {
  /// The paper observes convergence within ~20 iterations (Section 6.3).
  size_t max_iterations = 20;
  /// Early-exit threshold on the parameter change Delta of Section 6.3.
  double tolerance = 1e-7;
  /// Quality assumed for a worker in domains where nothing is known yet.
  double default_quality = 0.7;
  /// Qualities are clamped into [clamp, 1 - clamp] when used inside
  /// Equation 4, keeping the likelihood well-defined for perfect workers.
  double quality_clamp = 0.01;
  /// MAP shrinkage on Equation 5: each quality estimate is pulled toward
  /// the worker's seed quality (golden/WorkerStore profile, or
  /// default_quality) with this pseudo-count mass. Equation 5 becomes
  ///   q_k = (sum r s + m0 (prior + u0)) / (sum r + prior + u0)
  /// where (m0, u0) are the seed mean and weight. Without it, a worker with
  /// little mass in a domain can get a spurious q < 1/l and Eq. 4 then
  /// actively inverts her votes. 0 recovers the paper's exact formula.
  double quality_prior_strength = 1.0;
  /// Threads applied to the EM sweep (step 1 per-task matrices, step 2
  /// per-worker quality estimation). 0 = hardware concurrency, 1 = the
  /// sequential loops. Results are bit-identical for every value: step 1
  /// writes only task-owned slots and step 2 accumulates each worker's
  /// evidence in the same global answer order the sequential sweep used.
  size_t num_threads = 0;
};

struct TruthInferenceResult {
  /// s_i per task: the probabilistic truth distribution over choices.
  std::vector<std::vector<double>> task_truth;
  /// M^(i) per task (m x l_ti), the per-domain truth distributions of Eq. 3.
  std::vector<Matrix> truth_matrices;
  /// argmax_j s_{i,j} per task (the inferred truth v*_i).
  std::vector<size_t> inferred_choice;
  /// Final per-worker quality vectors q^w and weights u^w (Eq. 5).
  std::vector<WorkerQuality> worker_quality;
  /// Delta after each iteration (the convergence curve of Fig. 4(a)).
  std::vector<double> delta_history;
  size_t iterations_run = 0;
};

/// Computes M^(i) for one task from the answers it received and the current
/// worker qualities (Equations 3-4), in log space. `task_answers` must all
/// refer to this task. With no answers every row is uniform.
///
/// Stray answers — a worker index with no quality vector of the task's
/// dimension, or a choice outside [0, l) — are skipped instead of indexing
/// out of bounds (the baselines call this directly with caller-supplied
/// answer lists). `skipped_answers`, when non-null, receives the skip count.
Matrix ComputeTruthMatrix(const Task& task,
                          const std::vector<Answer>& task_answers,
                          const std::vector<WorkerQuality>& qualities,
                          double quality_clamp = 0.01,
                          size_t* skipped_answers = nullptr);

/// As above but writes into caller-owned storage: `*out` is reshaped to
/// (m, l_ti) and every cell overwritten, so EM sweeps can reuse one Matrix
/// per task across iterations instead of allocating a fresh one each time.
/// The answer filter and the log-numerator live in thread_local scratch (the
/// function runs inside ParallelFor bodies). Bit-identical to
/// ComputeTruthMatrix, which forwards here, and to the table-driven step 1
/// of the EM loop and the incremental engine (DESIGN.md §4).
void ComputeTruthMatrixInto(const Task& task,
                            const std::vector<Answer>& task_answers,
                            const std::vector<WorkerQuality>& qualities,
                            double quality_clamp, Matrix* out,
                            size_t* skipped_answers = nullptr);

/// Eq. 4's log-odds of one answer: log q - log((1 - q) / (l - 1)), with q
/// the clamped quality. It is what the answer adds to its chosen column of
/// M̂ (DESIGN.md §4); every step-1 path takes it from here.
double AnswerLogOdds(double quality, double quality_clamp, size_t l);

/// Eq. 3's row normalization: `*out` takes log_numer's shape and row k
/// becomes exp(M̂_k,j - max_j M̂_k,j) / sum_j exp(M̂_k,j - max_j M̂_k,j).
/// The argmax's term is exactly 1, so a row costs l - 1 `exp` calls and no
/// `log`. A row whose max is -inf or NaN (possible only with
/// quality_clamp = 0) comes out NaN, as the LogSumExp form gave. Every
/// step-1 path (ComputeTruthMatrixInto, the EM sweep, the incremental
/// engine) ends here, so they agree bit for bit whenever their
/// log-numerators do.
void SoftmaxRowsInto(const Matrix& log_numer, Matrix* out);

/// Eq. 4's per-answer log-odds, tabulated once per EM iteration instead of
/// once per answer: for every worker w, domain k and choice count l in use,
/// AnswerLogOdds(q^w_k, clamp, l). A task's log-numerator is then a sum of
/// table entries with answers in the outer loop, so each cell adds the same
/// values in the same answer order as ComputeTruthMatrixInto — the result
/// is bit-identical to it (DESIGN.md §4).
class QualityLogTable {
 public:
  /// Tabulates `qualities` (each of dimension `m`) for every choice count
  /// of `tasks`. The pool, when non-null, fans the fill out over workers.
  void Build(const std::vector<Task>& tasks, size_t m,
             const std::vector<WorkerQuality>& qualities, double quality_clamp,
             ThreadPool* pool);

  /// Writes `task`'s log-numerator M̂ (m x l, Eq. 3's numerator in log
  /// space, up to a per-row constant) into `*out`. Every answer must be in
  /// bounds (worker tabulated, choice < l); the EM callers filter up front.
  void LogNumeratorInto(const Task& task,
                        const std::vector<WorkerChoice>& task_answers,
                        Matrix* out) const;

 private:
  size_t m_ = 0;
  size_t num_slots_ = 0;           // distinct choice counts tabulated
  std::vector<size_t> slot_of_l_;  // choice count -> slot
  std::vector<size_t> choice_counts_;  // slot -> choice count
  std::vector<double> log_odds_;   // [(w * num_slots + slot) * m + k]
};

/// The answers an EM pass reads, grouped the two ways its steps walk them:
/// `of_task[i]` holds task i's answers in submission order (step 1), and
/// `of_worker[w]` worker w's answers by ascending task, submission order
/// within a task (step 2 accumulates each worker's evidence in that order,
/// which is what keeps the parallel sweep bit-identical to the serial one).
/// Every entry is in bounds of the tasks and workers it was grouped for.
struct AnswerGroups {
  std::vector<std::vector<WorkerChoice>> of_task;
  std::vector<std::vector<TaskChoice>> of_worker;
};

/// The buffers of one EM pass. A caller that runs passes repeatedly keeps
/// one and hands it back, so a later pass reuses its storage.
struct EmWorkspace {
  /// Tasks with at least one answer, ascending: the only ones step 1 visits.
  std::vector<uint32_t> answered;
  /// s_i of the answered tasks (others keep whatever they held), and the
  /// previous iteration's, rotated by swap.
  std::vector<std::vector<double>> task_truth;
  std::vector<std::vector<double>> prev_truth;
  /// q^w and u^w (Eq. 5), and the previous iteration's.
  std::vector<WorkerQuality> quality;
  std::vector<WorkerQuality> prev_quality;
  /// [w * m + k]: the r-mass of w's answers in domain k (a pass constant)
  /// and the s-weighted evidence of the current iteration.
  std::vector<double> mass;
  std::vector<double> evidence;
  /// Per worker: the pooled denominator of the hierarchical prior mean.
  std::vector<double> overall_mass;
  QualityLogTable table;
  std::vector<double> delta_history;
  size_t iterations_run = 0;
};

/// Initializes worker qualities from their answers to golden tasks
/// (Section 5.2): per domain, the r-weighted fraction of correct golden
/// answers, smoothed toward `options.default_quality`. Weights u are the
/// r-mass of golden tasks answered.
/// Stray inputs — a golden index outside the task list, a golden_tasks entry
/// with no matching golden_truth label (the arrays are parallel; the excess
/// of the longer one is dropped), an answer whose task or worker is out of
/// range — are skipped instead of indexing out of bounds; `skipped_answers`,
/// when non-null, receives the number of ignored entries.
std::vector<WorkerQuality> InitializeQualityFromGolden(
    const std::vector<Task>& tasks, size_t num_workers,
    const std::vector<Answer>& answers,
    const std::vector<size_t>& golden_tasks,
    const std::vector<size_t>& golden_truth, double default_quality = 0.7,
    double smoothing = 1.0, size_t* skipped_answers = nullptr);

/// The iterative truth-inference algorithm of Section 4.1: alternates
/// step 1 (qualities -> probabilistic truth, Eq. 2-4) and step 2
/// (probabilistic truth -> qualities, Eq. 5) until convergence.
class TruthInference {
 public:
  explicit TruthInference(TruthInferenceOptions options = {});

  /// Runs inference over `tasks` (with their domain vectors) and `answers`
  /// from `num_workers` workers. `initial_quality`, when provided, seeds the
  /// worker qualities (e.g. from golden tasks or the WorkerStore); otherwise
  /// every worker starts at options.default_quality. A seed whose quality or
  /// weight vector does not span the tasks' m domains is ignored (that
  /// worker starts at the default too).
  TruthInferenceResult Run(
      const std::vector<Task>& tasks, size_t num_workers,
      const std::vector<Answer>& answers,
      const std::vector<WorkerQuality>* initial_quality = nullptr) const;

  /// As above but executes on a caller-provided pool (ignoring
  /// options().num_threads), so a surrounding engine can reuse one pool
  /// across repeated runs. `pool == nullptr` runs sequentially.
  TruthInferenceResult Run(const std::vector<Task>& tasks, size_t num_workers,
                           const std::vector<Answer>& answers,
                           const std::vector<WorkerQuality>* initial_quality,
                           ThreadPool* pool) const;

  /// The EM loop itself, on answers already grouped: Run above groups its
  /// answer list and calls this, and the incremental engine passes its own
  /// lists. Starts from `seeds` (one m-dimensional, valid seed per worker of
  /// `answers.of_worker`) and leaves the converged qualities, the truths of
  /// the answered tasks and the Delta curve in `*work`. `truth_matrices`,
  /// when non-null, receives M^(i) of every answered task; otherwise M^(i)
  /// lives in per-thread scratch only. Tasks without answers are never
  /// visited: their step-1 result is the constant prior.
  void Iterate(const std::vector<Task>& tasks, const AnswerGroups& answers,
               const std::vector<WorkerQuality>& seeds, ThreadPool* pool,
               EmWorkspace* work, std::vector<Matrix>* truth_matrices) const;

  const TruthInferenceOptions& options() const { return options_; }

 private:
  TruthInferenceOptions options_;
  /// Lazily built pool of options().num_threads threads, reused across Run()
  /// calls. Mutable because Run() is logically const; TruthInference itself
  /// is not safe for concurrent use from multiple threads.
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_TRUTH_INFERENCE_H_
