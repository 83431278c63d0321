#include "core/task_assignment.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_utils.h"

namespace docs::core {
namespace {

double Clamp(double q, double clamp) {
  return std::min(1.0 - clamp, std::max(clamp, q));
}

}  // namespace

double AnswerProbability(const Task& task, const Matrix& truth_matrix,
                         const std::vector<double>& worker_quality, size_t a,
                         double quality_clamp) {
  const size_t m = task.domain_vector.size();
  DOCS_DCHECK_GE(worker_quality.size(), m);
  DOCS_DCHECK_EQ(truth_matrix.rows(), m);
  const double l = static_cast<double>(task.num_choices);
  double probability = 0.0;
  for (size_t k = 0; k < m; ++k) {
    const double rk = task.domain_vector[k];
    if (rk == 0.0) continue;
    const double q = Clamp(worker_quality[k], quality_clamp);
    const double mka = truth_matrix(k, a);
    const double wrong = l > 1.0 ? (1.0 - q) / (l - 1.0) : 0.0;
    probability += rk * (q * mka + wrong * (1.0 - mka));
  }
  return probability;
}

Matrix UpdatedTruthMatrix(const Task& task, const Matrix& truth_matrix,
                          const std::vector<double>& worker_quality, size_t a,
                          double quality_clamp) {
  DOCS_DCHECK_EQ(task.domain_vector.size(), truth_matrix.rows());
  const size_t m = truth_matrix.rows();
  const size_t l = truth_matrix.cols();
  Matrix updated(m, l, 0.0);
  for (size_t k = 0; k < m; ++k) {
    const double q = Clamp(worker_quality[k], quality_clamp);
    const double wrong =
        l > 1 ? (1.0 - q) / static_cast<double>(l - 1) : 1.0 - q;
    double denom = 0.0;
    for (size_t j = 0; j < l; ++j) {
      const double factor = (j == a) ? q : wrong;
      const double value = truth_matrix(k, j) * factor;
      updated(k, j) = value;
      denom += value;
    }
    if (denom > 0.0) {
      for (size_t j = 0; j < l; ++j) updated(k, j) /= denom;
    } else {
      for (size_t j = 0; j < l; ++j) {
        updated(k, j) = 1.0 / static_cast<double>(l);
      }
    }
  }
  return updated;
}

double ExpectedPosteriorEntropy(const Task& task, const Matrix& truth_matrix,
                                const std::vector<double>& worker_quality,
                                double quality_clamp) {
  double expected = 0.0;
  for (size_t a = 0; a < task.num_choices; ++a) {
    const double pa =
        AnswerProbability(task, truth_matrix, worker_quality, a, quality_clamp);
    if (pa <= 0.0) continue;
    Matrix updated =
        UpdatedTruthMatrix(task, truth_matrix, worker_quality, a, quality_clamp);
    std::vector<double> posterior = updated.LeftMultiply(task.domain_vector);
    NormalizeInPlace(posterior);
    expected += pa * Entropy(posterior);
  }
  return expected;
}

double ExpectedPosteriorEntropy(const Task& task, const Matrix& truth_matrix,
                                const std::vector<double>& worker_quality,
                                double quality_clamp,
                                BenefitScratch* scratch) {
  const size_t m = task.domain_vector.size();
  const size_t l = task.num_choices;
  DOCS_DCHECK_GE(worker_quality.size(), m);
  DOCS_DCHECK_EQ(truth_matrix.rows(), m);
  // Hoist the per-(worker, domain) clamp and wrong-answer factors out of the
  // choice loop: they are invariant across the l choices the reference path
  // recomputes them for. The two "wrong" factors are kept separate because
  // the reference kernels disagree on the degenerate l == 1 case (Theorem 2
  // uses 0, Theorem 3 uses 1-q) and bit-identity is the contract.
  scratch->clamped.resize(m);
  scratch->wrong_answer.resize(m);
  scratch->wrong_update.resize(m);
  const double ld = static_cast<double>(l);
  for (size_t k = 0; k < m; ++k) {
    const double q = Clamp(worker_quality[k], quality_clamp);
    scratch->clamped[k] = q;
    scratch->wrong_answer[k] = ld > 1.0 ? (1.0 - q) / (ld - 1.0) : 0.0;
    scratch->wrong_update[k] =
        l > 1 ? (1.0 - q) / static_cast<double>(l - 1) : 1.0 - q;
  }
  scratch->posterior.resize(l);
  std::vector<double>& posterior = scratch->posterior;
  double expected = 0.0;
  for (size_t a = 0; a < l; ++a) {
    // Theorem 2, same operation order as AnswerProbability.
    double pa = 0.0;
    for (size_t k = 0; k < m; ++k) {
      const double rk = task.domain_vector[k];
      if (rk == 0.0) continue;
      const double mka = truth_matrix(k, a);
      pa += rk * (scratch->clamped[k] * mka +
                  scratch->wrong_answer[k] * (1.0 - mka));
    }
    if (pa <= 0.0) continue;
    // Theorem 3 fused with the posterior projection r x M^(i)|a: row k of
    // the updated matrix is produced and consumed in place of being stored.
    // Rows with r_k == 0 contribute exactly +0.0 to every posterior entry in
    // the reference path, so skipping them is bit-identical.
    std::fill(posterior.begin(), posterior.end(), 0.0);
    for (size_t k = 0; k < m; ++k) {
      const double rk = task.domain_vector[k];
      if (rk == 0.0) continue;
      const double q = scratch->clamped[k];
      const double wrong = scratch->wrong_update[k];
      double denom = 0.0;
      for (size_t j = 0; j < l; ++j) {
        denom += truth_matrix(k, j) * ((j == a) ? q : wrong);
      }
      if (denom > 0.0) {
        for (size_t j = 0; j < l; ++j) {
          posterior[j] +=
              rk * ((truth_matrix(k, j) * ((j == a) ? q : wrong)) / denom);
        }
      } else {
        const double uniform = 1.0 / static_cast<double>(l);
        for (size_t j = 0; j < l; ++j) posterior[j] += rk * uniform;
      }
    }
    NormalizeInPlace(posterior);
    expected += pa * Entropy(posterior);
  }
  return expected;
}

double Benefit(const Task& task, const Matrix& truth_matrix,
               const std::vector<double>& task_truth,
               const std::vector<double>& worker_quality,
               double quality_clamp) {
  return Entropy(task_truth) -
         ExpectedPosteriorEntropy(task, truth_matrix, worker_quality,
                                  quality_clamp);
}

double Benefit(const Task& task, const Matrix& truth_matrix,
               const std::vector<double>& task_truth,
               const std::vector<double>& worker_quality, double quality_clamp,
               BenefitScratch* scratch) {
  return Entropy(task_truth) -
         ExpectedPosteriorEntropy(task, truth_matrix, worker_quality,
                                  quality_clamp, scratch);
}

double BenefitOfSetBruteForce(const std::vector<Task>& tasks,
                              const std::vector<Matrix>& matrices,
                              const std::vector<std::vector<double>>& truths,
                              const std::vector<size_t>& subset,
                              const std::vector<double>& worker_quality,
                              double quality_clamp) {
  DOCS_CHECK_EQ(matrices.size(), tasks.size());
  DOCS_CHECK_EQ(truths.size(), tasks.size());
  for (size_t i : subset) {
    DOCS_CHECK_LT(i, tasks.size()) << "assignment subset names unknown task";
  }
  if (subset.empty()) return 0.0;
  // Odometer over all answer combinations phi in Phi (Eq. 9-10).
  std::vector<size_t> phi(subset.size(), 0);
  double expected_benefit = 0.0;
  for (;;) {
    double probability = 1.0;
    double benefit = 0.0;
    for (size_t idx = 0; idx < subset.size(); ++idx) {
      const size_t i = subset[idx];
      const size_t a = phi[idx];
      probability *= AnswerProbability(tasks[i], matrices[i], worker_quality,
                                       a, quality_clamp);
      Matrix updated = UpdatedTruthMatrix(tasks[i], matrices[i],
                                          worker_quality, a, quality_clamp);
      std::vector<double> posterior =
          updated.LeftMultiply(tasks[i].domain_vector);
      NormalizeInPlace(posterior);
      benefit += Entropy(truths[i]) - Entropy(posterior);
    }
    expected_benefit += probability * benefit;
    size_t idx = 0;
    while (idx < subset.size()) {
      if (++phi[idx] < tasks[subset[idx]].num_choices) break;
      phi[idx] = 0;
      ++idx;
    }
    if (idx == subset.size()) break;
  }
  return expected_benefit;
}

std::vector<size_t> SelectTopKFromScored(std::vector<ScoredTask>* scored,
                                         size_t k) {
  const size_t take = std::min(k, scored->size());
  if (take == 0) return {};
  // Linear selection of the top-k (PICK), then order the selected few.
  std::nth_element(scored->begin(), scored->begin() + (take - 1), scored->end(),
                   BetterScored);
  std::sort(scored->begin(), scored->begin() + take, BetterScored);
  std::vector<size_t> selected;
  selected.reserve(take);
  for (size_t i = 0; i < take; ++i) selected.push_back((*scored)[i].task);
  return selected;
}

void BenefitIndex::SiftUp(size_t slot) {
  ScoredTask entry = heap_[slot];
  while (slot > 0) {
    const size_t parent = (slot - 1) / 2;
    if (!BetterScored(entry, heap_[parent])) break;
    PlaceAt(slot, heap_[parent]);
    slot = parent;
  }
  PlaceAt(slot, entry);
}

void BenefitIndex::SiftDown(size_t slot) {
  ScoredTask entry = heap_[slot];
  const size_t n = heap_.size();
  for (;;) {
    size_t best = 2 * slot + 1;
    if (best >= n) break;
    if (best + 1 < n && BetterScored(heap_[best + 1], heap_[best])) ++best;
    if (!BetterScored(heap_[best], entry)) break;
    PlaceAt(slot, heap_[best]);
    slot = best;
  }
  PlaceAt(slot, entry);
}

void BenefitIndex::Rebuild(size_t num_tasks, uint64_t worker_epoch,
                           uint64_t generation,
                           uint64_t cursor,
                           const std::vector<uint32_t>* exclude_sorted,
                           const std::function<double(size_t)>& score,
                           ThreadPool* pool) {
  // pos_ packs heap slots into uint32_t (+1 for the "absent" sentinel).
  DOCS_CHECK_LT(num_tasks, size_t{0xffffffff});
  heap_.clear();
  heap_.reserve(num_tasks);
  pos_.assign(num_tasks, 0);
  size_t e = 0;
  for (size_t task = 0; task < num_tasks; ++task) {
    if (exclude_sorted != nullptr) {
      while (e < exclude_sorted->size() && (*exclude_sorted)[e] < task) ++e;
      if (e < exclude_sorted->size() && (*exclude_sorted)[e] == task) continue;
    }
    heap_.push_back({task, 0.0});
  }
  // Each slot is scored independently (per-thread kernel scratch), so the
  // fan-out is thread-count invariant.
  ParallelFor(pool, heap_.size(),
              [&](size_t s) { heap_[s].value = score(heap_[s].task); });
  for (size_t s = 0; s < heap_.size(); ++s) {
    pos_[heap_[s].task] = static_cast<uint32_t>(s + 1);
  }
  // Floyd heapify: bottom-up sift-down, O(n) total.
  for (size_t s = heap_.size() / 2; s-- > 0;) SiftDown(s);
  worker_epoch_tag_ = worker_epoch;
  generation_tag_ = generation;
  cursor_ = cursor;
}

void BenefitIndex::Repair(size_t task, double value) {
  if (!contains(task)) return;
  const size_t slot = pos_[task] - 1;
  if (heap_[slot].value == value) return;  // bitwise-identical score: no-op
  const bool rose = value > heap_[slot].value;
  heap_[slot].value = value;
  if (rose) {
    SiftUp(slot);
  } else {
    SiftDown(slot);
  }
}

bool BenefitIndex::TrySelect(const std::function<bool(size_t)>& eligible,
                             size_t k, size_t budget, std::vector<size_t>* out,
                             uint64_t* pops) {
  out->clear();
  if (k == 0 || heap_.empty()) return true;
  // Candidate-frontier traversal: the frontier holds heap slots whose
  // parents were already emitted, ordered (as a little heap of its own) by
  // the indexed entries' total order. Because BetterScored is total and the
  // main heap satisfies it parent-over-child strictly, the best frontier
  // slot is better than every other unvisited node — so emission happens in
  // exact global rank order, matching the scan's sorted prefix bit for bit.
  frontier_.clear();
  auto frontier_order = [this](uint32_t a, uint32_t b) {
    // std::push/pop_heap keep the *largest* element first under "less-than";
    // "less" here means "worse score".
    return BetterScored(heap_[b], heap_[a]);
  };
  frontier_.push_back(0);
  uint64_t visited = 0;
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), frontier_order);
    const uint32_t slot = frontier_.back();
    frontier_.pop_back();
    ++visited;
    if (visited > budget) {
      *pops += visited;
      return false;
    }
    if (eligible(heap_[slot].task)) {
      out->push_back(heap_[slot].task);
      if (out->size() == k) break;
    }
    for (uint32_t child = 2 * slot + 1;
         child <= 2 * slot + 2 && child < heap_.size(); ++child) {
      frontier_.push_back(child);
      std::push_heap(frontier_.begin(), frontier_.end(), frontier_order);
    }
  }
  *pops += visited;
  return true;
}

void BenefitIndex::CheckInvariant() const {
  size_t indexed = 0;
  for (size_t task = 0; task < pos_.size(); ++task) {
    if (pos_[task] == 0) continue;
    ++indexed;
    DOCS_DCHECK_LE(pos_[task], heap_.size());
    DOCS_DCHECK_EQ(heap_[pos_[task] - 1].task, task);
  }
  DOCS_DCHECK_EQ(indexed, heap_.size());
  for (size_t slot = 1; slot < heap_.size(); ++slot) {
    DOCS_DCHECK(BetterScored(heap_[(slot - 1) / 2], heap_[slot]))
        << "benefit index heap property violated at slot " << slot;
  }
}

TaskAssigner::TaskAssigner(TaskAssignerOptions options) : options_(options) {}

std::vector<size_t> TaskAssigner::SelectTopK(
    const std::vector<Task>& tasks, const std::vector<Matrix>& matrices,
    const std::vector<std::vector<double>>& truths,
    const std::vector<double>& worker_quality,
    const std::vector<uint8_t>& eligible, size_t k) const {
  // All four parallel arrays must describe the same task list; a mismatch
  // would read a stale eligibility bit (or out of bounds) for some task.
  DOCS_CHECK_EQ(eligible.size(), tasks.size());
  DOCS_CHECK_EQ(matrices.size(), tasks.size());
  DOCS_CHECK_EQ(truths.size(), tasks.size());
  CheckUnitInterval(worker_quality, 1e-9, "OTA worker quality (Eq. 5)");
  std::vector<ScoredTask> scored;
  scored.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!eligible[i]) continue;
    scored.push_back({i, 0.0});
  }
  // Parallel scoring: each eligible task owns one slot, so the benefit
  // vector (and the selection below) is identical for any thread count. The
  // scratch arena is per thread; it only carries intermediates within one
  // Benefit call, so which thread scores a task cannot affect the result.
  const size_t threads = EffectiveThreadCount(options_.num_threads);
  if (threads > 1 &&
      (pool_ == nullptr || pool_->num_threads() != threads)) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  ParallelFor(threads > 1 ? pool_.get() : nullptr, scored.size(),
              [&](size_t s) {
                const size_t i = scored[s].task;
                thread_local BenefitScratch scratch;
                scored[s].value =
                    Benefit(tasks[i], matrices[i], truths[i], worker_quality,
                            options_.quality_clamp, &scratch);
                // A NaN benefit would poison the nth_element comparator
                // (strict weak ordering) below.
                DOCS_DCHECK_FINITE(scored[s].value, "task benefit (Eq. 8)");
              });
  return SelectTopKFromScored(&scored, k);
}

}  // namespace docs::core
