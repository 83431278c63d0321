#ifndef DOCS_CORE_TASK_ASSIGNMENT_H_
#define DOCS_CORE_TASK_ASSIGNMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "core/types.h"

namespace docs::core {

/// Reusable scratch arena for the fused benefit kernel. One instance per
/// thread: the serving loops keep a thread_local arena so repeated Benefit
/// calls never touch the heap once the vectors have grown to the campaign's
/// (m, l) shape. Contents are meaningless between calls.
struct BenefitScratch {
  std::vector<double> clamped;       // Clamp(q_k) per domain
  std::vector<double> wrong_answer;  // Theorem 2's (1-q)/(l-1) term per domain
  std::vector<double> wrong_update;  // Theorem 3's off-answer factor per domain
  std::vector<double> posterior;     // r x M^(i)|a, one choice at a time
};

/// Theorem 2: probability that worker with quality `q` gives choice `a` to
/// the task, given its current matrix M^(i):
///   Pr(v^w_i = a | V(i)) = sum_k r_k [ q_k M_{k,a} + (1-q_k)/(l-1) (1-M_{k,a}) ].
double AnswerProbability(const Task& task, const Matrix& truth_matrix,
                         const std::vector<double>& worker_quality, size_t a,
                         double quality_clamp = 0.01);

/// Theorem 3: the updated matrix M^(i)|a after the worker answers `a`.
Matrix UpdatedTruthMatrix(const Task& task, const Matrix& truth_matrix,
                          const std::vector<double>& worker_quality, size_t a,
                          double quality_clamp = 0.01);

/// Equation 8: the expected posterior entropy
///   H(ŝ_i) = sum_a H(r x M^(i)|a) Pr(v^w_i = a | V(i)).
double ExpectedPosteriorEntropy(const Task& task, const Matrix& truth_matrix,
                                const std::vector<double>& worker_quality,
                                double quality_clamp = 0.01);

/// Fused Eq. 8: one pass per (choice, domain) that folds Theorems 2-3 and
/// the posterior projection together without materializing M^(i)|a. The
/// per-(worker, domain) clamp+wrong-factor precomputation is hoisted out of
/// the choice loop into `scratch`, and every intermediate lives in the
/// scratch arena — zero heap allocations once the arena has warmed up.
/// Bit-identical to the allocating reference above (same floating-point
/// operations in the same order); tests/ota_test.cc asserts exact equality.
double ExpectedPosteriorEntropy(const Task& task, const Matrix& truth_matrix,
                                const std::vector<double>& worker_quality,
                                double quality_clamp, BenefitScratch* scratch);

/// Definition 5: B(t_i) = H(s_i) - H(ŝ_i), the expected ambiguity reduction
/// if the worker answers the task.
double Benefit(const Task& task, const Matrix& truth_matrix,
               const std::vector<double>& task_truth,
               const std::vector<double>& worker_quality,
               double quality_clamp = 0.01);

/// Definition 5 on the fused, allocation-free kernel. The reference overload
/// above is retained as the spec oracle (tests prove the two bit-identical)
/// and as the seed-era cold path for benchmarks.
double Benefit(const Task& task, const Matrix& truth_matrix,
               const std::vector<double>& task_truth,
               const std::vector<double>& worker_quality,
               double quality_clamp, BenefitScratch* scratch);

/// Equation 10 computed by brute force: enumerates all prod l_ti answer
/// combinations phi for the given task subset and sums Bphi weighted by the
/// combination probability. Exponential — used in tests to validate
/// Theorem 4 (B(Tk) = sum B(ti)) on small instances.
double BenefitOfSetBruteForce(const std::vector<Task>& tasks,
                              const std::vector<Matrix>& matrices,
                              const std::vector<std::vector<double>>& truths,
                              const std::vector<size_t>& subset,
                              const std::vector<double>& worker_quality,
                              double quality_clamp = 0.01);

/// One scored task, shared by every top-k selection path: the scan fallback,
/// the PICK helper below, and the per-worker benefit index's heap order.
struct ScoredTask {
  size_t task = 0;
  double value = 0.0;
};

/// THE tie-break order of every selection path: value descending, task index
/// ascending. A total order (no two distinct tasks ever compare equal), which
/// is what lets a heap ordered by it emit entries in exactly the sequence the
/// scan's nth_element + prefix sort produces — the bit-identity contract the
/// benefit index rests on (DESIGN.md §16).
inline bool BetterScored(const ScoredTask& a, const ScoredTask& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.task < b.task;
}

/// PICK (shared): isolates the top `take = min(k, scored->size())` entries of
/// `*scored` with a linear nth_element, orders that prefix by BetterScored,
/// and returns the task indices. The scan paths in DocsSystem::RankCore and
/// TaskAssigner::SelectTopK both route through this one helper so their
/// tie-break order can never drift from the index's.
std::vector<size_t> SelectTopKFromScored(std::vector<ScoredTask>* scored,
                                         size_t k);

/// Per-worker ordered benefit index (DESIGN.md §16), the one memo of a
/// worker's benefit scores: a binary max-heap over them, ordered by
/// BetterScored, plus a
/// task -> heap-slot map so a stale score can be repaired in place (sift) in
/// O(log n). A fully warm RequestTasks then reads the top k eligible tasks
/// off the heap in O(k log n) instead of scanning and nth_element-ing all n
/// scores.
///
/// Freshness is tagged, never assumed: the index remembers the worker epoch
/// and invalidation generation it was built under, plus a cursor into the
/// one change feed — the engine's mutation log, read live or from the window
/// a published snapshot carries. The owner revalidates the tags before every
/// use — a mismatch means Rebuild, a cursor gap means targeted Repair of
/// exactly the tasks the feed names. Instances are NOT thread-safe; the
/// owner serializes access per worker (DocsSystem: the worker's shard stripe
/// or the exclusive lock).
class BenefitIndex {
 public:
  /// True when the index still describes (worker_epoch, generation) over
  /// `num_tasks` tasks and only cursor catch-up may be needed. A never-built
  /// index carries worker epoch 0, which live epochs (from 1) never match.
  bool Fresh(uint64_t worker_epoch, uint64_t generation,
             size_t num_tasks) const {
    return worker_epoch_tag_ == worker_epoch &&
           generation_tag_ == generation && pos_.size() == num_tasks;
  }

  /// Change-feed cursor: the absolute mutation-log sequence number the heap
  /// is synced to.
  uint64_t cursor() const { return cursor_; }
  void set_cursor(uint64_t cursor) { cursor_ = cursor; }

  /// Number of indexed (non-excluded) tasks.
  size_t size() const { return heap_.size(); }
  bool contains(size_t task) const {
    return task < pos_.size() && pos_[task] != 0;
  }
  /// The indexed score of `task`, which the index must contain. The scan
  /// fallback reads every eligible task's score here instead of rescoring.
  double value(size_t task) const {
    DOCS_DCHECK(contains(task)) << "task " << task << " is not indexed";
    return heap_[pos_[task] - 1].value;
  }

  /// Rebuilds the heap from scratch for the given tags: every task except
  /// those in `exclude_sorted` (ascending; nullptr = none) is scored via
  /// `score` — fanned out over `pool` when non-null; each slot is
  /// independent, so the heap contents are thread-count invariant — then
  /// heapified bottom-up in O(n).
  void Rebuild(size_t num_tasks, uint64_t worker_epoch,
               uint64_t generation, uint64_t cursor,
               const std::vector<uint32_t>* exclude_sorted,
               const std::function<double(size_t)>& score, ThreadPool* pool);

  /// Replaces `task`'s indexed value and restores the heap invariant with
  /// one sift (O(log n)). No-op for tasks the index does not contain.
  void Repair(size_t task, double value);

  /// Reads the top `k` tasks satisfying `eligible` off the heap WITHOUT
  /// popping: a candidate-frontier walk that visits nodes in exact
  /// BetterScored order (the heap order is total, so a parent strictly
  /// precedes both children). Appends visited-node count to `*pops` and
  /// fills `*out` (cleared first). Returns false — partial `*out`, caller
  /// must fall back to the scan — once more than `budget` nodes were visited
  /// (a churn-heavy pass where many top entries are ineligible). Warm calls
  /// allocate nothing: the frontier scratch is a reused member.
  bool TrySelect(const std::function<bool(size_t)>& eligible, size_t k,
                 size_t budget, std::vector<size_t>* out, uint64_t* pops);

  /// O(n) heap-property + position-map audit behind DOCS_DCHECK; call sites
  /// compile it in only under DOCS_DEBUG_CHECKS builds (scripts/ci.sh strict
  /// stage).
  void CheckInvariant() const;

 private:
  void SiftUp(size_t slot);
  void SiftDown(size_t slot);
  void PlaceAt(size_t slot, const ScoredTask& entry) {
    heap_[slot] = entry;
    pos_[entry.task] = static_cast<uint32_t>(slot + 1);
  }

  std::vector<ScoredTask> heap_;
  /// task -> heap slot + 1; 0 = task not indexed (excluded at rebuild).
  std::vector<uint32_t> pos_;
  /// TrySelect's candidate frontier (heap slots), reused across calls.
  std::vector<uint32_t> frontier_;
  uint64_t worker_epoch_tag_ = 0;
  uint64_t generation_tag_ = 0;
  uint64_t cursor_ = 0;
};

struct TaskAssignerOptions {
  double quality_clamp = 0.01;
  /// Threads applied to benefit scoring in SelectTopK. 0 = hardware
  /// concurrency, 1 = sequential. Each eligible task's benefit lands in its
  /// own slot before the (serial) top-k selection, so the returned ranking
  /// is identical for every thread count.
  size_t num_threads = 0;
};

/// The OTA module (Section 5.1): scores every eligible task with Definition
/// 5's benefit and returns the k best. Selection is linear via
/// std::nth_element (the PICK algorithm of the paper); the returned indices
/// are ordered by decreasing benefit.
class TaskAssigner {
 public:
  explicit TaskAssigner(TaskAssignerOptions options = {});

  /// Selects up to `k` tasks for the coming worker. `eligible[i]` marks the
  /// tasks in T - T(w) (not yet answered by the worker and still open).
  /// `matrices` and `truths` are the current M^(i) and s_i.
  std::vector<size_t> SelectTopK(const std::vector<Task>& tasks,
                                 const std::vector<Matrix>& matrices,
                                 const std::vector<std::vector<double>>& truths,
                                 const std::vector<double>& worker_quality,
                                 const std::vector<uint8_t>& eligible,
                                 size_t k) const;

  const TaskAssignerOptions& options() const { return options_; }

 private:
  TaskAssignerOptions options_;
  /// Lazy scoring pool (see TaskAssignerOptions::num_threads). Mutable
  /// because SelectTopK is logically const; a TaskAssigner instance is not
  /// itself safe for concurrent use.
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_TASK_ASSIGNMENT_H_
