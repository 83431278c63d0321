#ifndef DOCS_CORE_DOCS_SYSTEM_H_
#define DOCS_CORE_DOCS_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/assignment_policy.h"
#include "core/domain_vector.h"
#include "core/golden_selection.h"
#include "core/incremental_ti.h"
#include "core/inference_service.h"
#include "core/task_assignment.h"
#include "core/types.h"
#include "kb/knowledge_base.h"
#include "storage/state_checkpoint.h"
#include "storage/worker_store.h"

namespace docs::core {

/// A task as a requester submits it: text plus the choice count. The
/// requester optionally knows the ground truth (needed only for the tasks
/// chosen as golden).
struct TaskInput {
  std::string text;
  size_t num_choices = 2;
};

/// How SelectTasks ranks eligible tasks.
///  * kBenefit       — DOCS's OTA (Def. 5): domains + worker quality +
///                     truth confidence.
///  * kDomainMax     — the D-Max baseline of Section 6.4: picks the tasks
///                     whose domains best match the worker (sum_k r_k q^w_k)
///                     and ignores how confident the truth already is.
///  * kUncertainty   — ablation: rank by current truth entropy H(s_i) only
///                     (ignores who the worker is).
///  * kQualityBlind  — ablation: Def. 5's benefit but with the worker's
///                     quality vector replaced by its mean (no domain
///                     awareness in the assignment step).
enum class SelectionRule {
  kBenefit,
  kDomainMax,
  kUncertainty,
  kQualityBlind,
};

/// A task grant that was never answered: ExpireLeases returns these so the
/// assignment pool can re-serve work abandoned by no-show workers.
struct ExpiredLease {
  size_t worker = 0;
  size_t task = 0;
  /// The logical deadline the lease missed (grant clock + lease_duration).
  uint64_t deadline = 0;
};

/// Benefit-index effectiveness counters (DESIGN.md §16), monotonic over the
/// system's lifetime.
struct ServingCounters {
  /// Benefit scores computed: every kernel call an index rebuild or repair
  /// makes, plus the cold scores ScoreAllTasks(w, false) computes for tasks
  /// the index excludes. One serving request can compute O(n) of them, so
  /// this is the wrong unit for a hit-*rate*.
  uint64_t benefit_cache_misses = 0;
  /// Request level: one count per serving scoring pass that granted at least
  /// one task. A pass that computed no score — everything it needed was
  /// already in the worker's index — is a hit; one that computed at least
  /// one score is a miss. hit / (hit + miss) is the hit-rate a dashboard
  /// should display. Golden-phase grants, passes that found no eligible
  /// task, k = 0 requests and ScoreAllTasks do not count.
  uint64_t benefit_cache_request_hits = 0;
  uint64_t benefit_cache_request_misses = 0;
  /// Heap nodes visited by index-served selections (the k-log-n work unit),
  /// targeted repairs replayed from the mutation log, and full O(n)
  /// rebuilds (first contact, worker-epoch or generation staleness, cursor
  /// outside the feed window).
  uint64_t benefit_index_pops = 0;
  uint64_t benefit_index_repairs = 0;
  uint64_t benefit_index_rebuilds = 0;
  /// Full re-inference runs, each of which staled every index with one
  /// generation bump (the engine's generation - 1).
  uint64_t benefit_index_generation_invalidations = 0;
};

struct DocsSystemOptions {
  nlp::EntityLinkerOptions linker;
  TruthInferenceOptions truth_inference;
  /// The benefit kernel clamps qualities into [clamp, 1 - clamp] (Def. 5).
  double quality_clamp = 0.01;
  /// Number of golden tasks selected after DVE (20 in the paper).
  size_t golden_count = 20;
  /// Lease duration for granted tasks, in logical ticks (each SelectTasks
  /// call advances the clock by one). While a lease is outstanding the task
  /// counts against `max_answers_per_task`, so OTA does not over-assign
  /// in-flight work; a grant not answered within the duration is considered
  /// abandoned and is reclaimed by ExpireLeases(). 0 disables leasing.
  /// Leases are intentionally volatile: a crash (checkpoint restore) drops
  /// them all, which simply returns the in-flight tasks to the pool.
  size_t lease_duration = 0;
  /// Re-run the full iterative inference every z answer submissions
  /// (z = 100 in DOCS); 0 disables the periodic re-run.
  size_t reinfer_every = 100;
  /// Laplace smoothing mass when initializing quality from golden answers.
  double golden_smoothing = 1.0;
  /// Upper bound on answers collected per task (0 = unlimited). DOCS itself
  /// lets the benefit function starve confident tasks, but requesters often
  /// want a hard redundancy cap as a budget guarantee.
  size_t max_answers_per_task = 0;
  SelectionRule selection_rule = SelectionRule::kBenefit;
  /// Display name override (the D-Max configuration reports "D-Max").
  std::string display_name = "DOCS";
  /// Threads applied to the serving hot loops: benefit/match/entropy scoring
  /// in SelectTasks and on snapshots, and the EM sweep / recompute fan-out of
  /// the embedded inference engine — all served by ONE pool of this size,
  /// built with the system and shared by concurrent callers (the engine's
  /// own truth_inference.num_threads is not used here).
  /// 0 = hardware concurrency, 1 = the historical sequential behavior.
  /// Results are bit-identical for every value; see DESIGN.md §8.
  size_t num_threads = 0;
  /// What ConcurrentDocsSystem::SubmitAnswer does with a validated, booked
  /// answer (DESIGN.md §15). RequestTasks scores against the last published
  /// immutable snapshot either way. Off (staleness 0): the answer is applied
  /// inline under the exclusive state lock and the snapshot marked stale, so
  /// the next RequestTasks republishes before it serves. On: the answer is
  /// enqueued onto a background inference service that applies and
  /// publishes in batches, so an answer burst (retro-update fan-out, the
  /// periodic full EM) never blocks a concurrent serving call; staleness is
  /// bounded by the queue. A bare DocsSystem ignores it. Post-Drain() state
  /// is bitwise-identical across the two (tests/inference_service_test.cc).
  bool async_inference = false;
  /// Bound on answers acknowledged but not yet applied by the background
  /// service; submitters block (backpressure) once it is reached.
  size_t async_queue_capacity = 1024;
};

/// The complete DOCS pipeline of Figure 1:
///  - AddTasks() runs DVE over the submitted task text against the KB and
///    selects golden tasks;
///  - SelectTasks() serves worker requests: new workers receive the golden
///    tasks first (to probe their per-domain quality), then OTA picks the
///    k highest-benefit tasks;
///  - OnAnswer() feeds the incremental truth inference, initializes worker
///    quality once the golden phase completes, and re-runs the full
///    iterative inference every z submissions.
class DocsSystem : public AssignmentPolicy {
 public:
  /// `knowledge_base` must outlive the system.
  DocsSystem(const kb::KnowledgeBase* knowledge_base,
             DocsSystemOptions options = {});

  /// Ingests tasks: computes each task's domain vector via DVE and selects
  /// golden tasks. `known_truths`, when provided (parallel to `inputs`),
  /// supplies the requester-labeled ground truth used for golden grading.
  /// May be called once per system instance.
  [[nodiscard]] Status AddTasks(const std::vector<TaskInput>& inputs,
                  const std::vector<size_t>* known_truths = nullptr);

  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<size_t>& golden_tasks() const { return golden_.tasks; }
  const IncrementalTruthInference& inference() const { return *inference_; }

  /// Maps an external (platform) worker id to a dense index, registering it
  /// on first use.
  size_t WorkerIndex(const std::string& external_id);

  /// Looks up an external worker id WITHOUT registering it; nullopt when the
  /// id has never been seen. The serving path uses this to reject
  /// submissions from workers that never requested tasks — a malformed id
  /// arriving over the network must not mint a fresh worker.
  std::optional<size_t> FindWorker(const std::string& external_id) const;

  /// Seeds a worker's quality from the persistent store (Theorem 1 state);
  /// NotFound if the store has no record. Returning workers skip the golden
  /// phase.
  [[nodiscard]] Status LoadWorker(const std::string& external_id,
                    const storage::WorkerStore& store);

  /// Persists a worker's accumulated (q, u) statistics.
  [[nodiscard]] Status SaveWorker(const std::string& external_id,
                    storage::WorkerStore* store) const;

  /// Writes a crash-consistent snapshot of the whole session (tasks with
  /// their DVE vectors, golden set, workers with seed profiles, all answers)
  /// to `path`. Derived inference state is rebuilt on load by replay.
  [[nodiscard]] Status SaveCheckpoint(const std::string& path) const;

  /// Restores a session saved with SaveCheckpoint. Must be called instead
  /// of AddTasks on a fresh system (same KB and options as the original).
  /// Answer records that fail validation (out-of-range task/choice,
  /// duplicate (worker, task) pair) are skipped with a warning rather than
  /// poisoning the whole restore — a corrupted record costs one answer, not
  /// the session.
  [[nodiscard]] Status LoadCheckpoint(const std::string& path);

  /// Validated answer submission: rejects answers against a system with no
  /// tasks (FailedPrecondition), unknown workers/tasks (InvalidArgument),
  /// out-of-range choices (OutOfRange) and duplicate (worker, task)
  /// submissions (AlreadyExists) — AMT retries and malformed callbacks must
  /// not corrupt inference state. On success the answer is booked (any lease
  /// the worker held on the task is released) and applied.
  [[nodiscard]] Status SubmitAnswer(size_t worker, size_t task, size_t choice);

  /// Releases every lease whose deadline is at or before `now` and returns
  /// the reclaimed grants; the freed tasks are immediately assignable again.
  std::vector<ExpiredLease> ExpireLeases(uint64_t now);

  /// Logical clock: the number of SelectTasks calls served so far.
  uint64_t lease_clock() const { return lease_clock_; }
  size_t outstanding_leases() const { return leases_.size(); }

  /// The serving counters, each a relaxed atomic load: safe to call from any
  /// thread without the facade's state lock, and not a consistent
  /// cross-counter snapshot.
  ServingCounters serving_counters() const;

  /// Scores every task for `worker` under the configured selection rule and
  /// returns the raw scores (ignoring eligibility). With `cold` the pass
  /// scores every task from live inference state without touching the
  /// worker's benefit index; without it, the pass syncs the index (moving
  /// the index counters and benefit_cache_misses), reads every indexed score
  /// off it, and scores cold only the tasks the index excludes (her booked
  /// answers). The ranking oracle suite asserts both passes bitwise equal to
  /// a test-side scan.
  std::vector<double> ScoreAllTasks(size_t worker, bool cold);

  /// Re-runs the full iterative inference over all stored answers, restarting
  /// from the workers' seed profiles. The result depends only on (tasks,
  /// seeds, answer order), which makes it the bit-equality oracle for crash
  /// recovery: a recovered system and an uninterrupted reference converge to
  /// identical posteriors iff they hold identical answer sequences.
  void RunFullInference();

  /// External ids of every registered worker in registration (dense-index)
  /// order. Recovery replays registrations in this order so worker indices —
  /// and therefore inference's float summation order — are reproduced.
  std::vector<std::string> WorkerIds() const;

  // --- Serving plumbing (DESIGN.md §13-§16) --------------------------------
  // ConcurrentDocsSystem serves every post-golden request from a published
  // InferenceSnapshot in three phases — eligibility → score → commit — so
  // the scoring phase of several workers runs genuinely in parallel without
  // the state lock. Scoring syncs and reads the worker's benefit index, the
  // one memo of her benefit scores. A submission is split the same way:
  // validate + book (what the serving phases read) and apply (what the
  // snapshot is built from). Locking contract (enforced by the facade, not
  // checked here):
  //  - the submission books, the lease books and the clock are guarded by
  //    the facade's assign lock: ValidateAnswer, BookAnswer,
  //    BeginShardedSelect and CommitShardedSelect hold it;
  //  - ScoreAndRankSnapshot holds the worker's shard lock (the pass syncs
  //    and reads her benefit index) and no state lock;
  //  - ApplyAnswer and BuildSnapshot hold the exclusive state lock.

  /// Reusable per-shard scoring buffers; guarded by the owning shard lock.
  /// Phase 1 copies the booked answers and, under a redundancy cap, the cap
  /// mask (else empty); `eligible` is the scan fallback's bitmap of both.
  struct ShardScratch {
    std::vector<uint32_t> answered;
    std::vector<uint8_t> capped;
    std::vector<uint8_t> eligible;
    std::vector<double> quality;
  };

  /// True once `worker` is past the golden probe: the snapshot path may
  /// serve her (state lock held).
  bool golden_done(size_t worker) const { return workers_[worker].golden_done; }

  /// Phase 1: advances the lease clock and copies the worker's booked
  /// answers (and, under a redundancy cap, the cap mask) into `scratch`.
  void BeginShardedSelect(size_t worker, ShardScratch& scratch);

  /// Phase 2: scores the tasks `scratch` leaves eligible against `snap`
  /// (never touching live inference state) on the system's pool, which
  /// concurrent passes share, and returns the provisional top-k.
  std::vector<size_t> ScoreAndRankSnapshot(const InferenceSnapshot& snap,
                                           size_t worker,
                                           ShardScratch& scratch, size_t k);

  /// Phase 3: re-validates the selection against leases granted since the
  /// snapshot and commits the grants. False (nothing committed) when a
  /// selected task lost redundancy-cap eligibility in between — the caller
  /// retries from phase 1 with a fresh snapshot. With `force` the conflicted
  /// tasks are dropped and the remainder committed instead.
  bool CommitShardedSelect(size_t worker, std::vector<size_t>* selected,
                           bool force);

  /// Checks one submission against the submission books: no tasks ingested
  /// (FailedPrecondition), unknown task (InvalidArgument), out-of-range
  /// choice (OutOfRange), duplicate (worker, task) pair (AlreadyExists). The
  /// books lead the engine by any queued answers, so a duplicate is caught
  /// at ack time even while the original is still queued. The caller
  /// resolved `worker` to a registered index.
  [[nodiscard]] Status ValidateAnswer(size_t worker, size_t task,
                                      size_t choice) const;

  /// Books one validated submission: marks (worker, task) answered, counts
  /// it against the redundancy cap and releases the worker's lease — the
  /// side effects eligibility must see at ack time.
  void BookAnswer(size_t worker, size_t task);

  /// Applies one booked answer to the engine: inference absorption, golden
  /// accounting, and the periodic full inference every z answers. Inline
  /// (sync) and queued (async) answers run this same sequence, so
  /// post-Drain() state is bitwise-identical.
  [[nodiscard]] Status ApplyAnswer(size_t worker, size_t task, size_t choice);

  /// Builds the next snapshot: the engine's posterior chunks by pointer, and
  /// worker views shared with `prev` while epoch and generation hold. Also
  /// creates every registered worker's benefit index for the snapshot path.
  std::shared_ptr<const InferenceSnapshot> BuildSnapshot(
      const InferenceSnapshot* prev);

  /// External id of a registered worker (state lock held).
  const std::string& worker_external_id(size_t worker) const {
    return workers_[worker].external_id;
  }

  // --- AssignmentPolicy -----------------------------------------------------
  std::string name() const override { return options_.display_name; }
  std::vector<size_t> SelectTasks(size_t worker, size_t k) override;
  /// Platform-interface shim over SubmitAnswer: logs and drops rejected
  /// answers (the campaign protocols of Section 6.1 have no error channel).
  void OnAnswer(size_t worker, size_t task, size_t choice) override;
  std::vector<size_t> InferredChoices() override;

 private:
  struct WorkerProfile {
    std::string external_id;
    bool golden_done = false;
    size_t golden_answered = 0;
    /// Correct/total r-mass per domain accumulated on golden tasks.
    std::vector<double> golden_correct;
    std::vector<double> golden_total;
  };

  void FinishGoldenPhase(size_t worker);

  /// Builds the scan fallback's eligibility bitmap into `*eligible`: all-open
  /// minus the booked `answered` tasks minus the capped ones, read from the
  /// phase-1 mask `capped` or, when null, from the live lease books.
  void BuildEligibilityBitmap(const std::vector<uint32_t>& answered,
                              const std::vector<uint8_t>* capped,
                              std::vector<uint8_t>* eligible) const;

  /// Builds the selection-rule scoring function for a worker whose quality
  /// vector is `worker_quality`, reading task posteriors from `snap` (a
  /// published snapshot) or, when null, from the live engine. Stages the
  /// (possibly flattened) quality vector in `quality`, which the callable
  /// borrows along with `snap` — both must outlive the scoring pass, and
  /// concurrent passes must use distinct `quality` storage.
  std::function<double(size_t)> MakeScoreFn(
      const std::vector<double>& worker_quality, const InferenceSnapshot* snap,
      std::vector<double>& quality);

  /// Syncs `index` to (worker_epoch, generation) and returns how many
  /// scores that computed: a full rebuild (leaving out the worker's
  /// `answered` tasks, ascending; scored over the pool) on a tag mismatch or a
  /// cursor outside the mutation-log window, targeted repairs from the window
  /// otherwise. The window is the live engine's (`snap` null) or the one the
  /// snapshot carries. Adds the count to benefit_cache_misses.
  size_t SyncIndex(const std::vector<uint32_t>& answered, BenefitIndex* index,
                   const std::function<double(size_t)>& score,
                   uint64_t worker_epoch, uint64_t generation,
                   const InferenceSnapshot* snap);

  /// The scan fallback: every task `eligible` marks, valued from the synced
  /// `index` (which contains them all — the tasks it leaves out are booked
  /// answers, and a booked answer never becomes eligible again), ordered by
  /// the shared PICK helper. Scores nothing.
  std::vector<size_t> RankCore(const std::vector<uint8_t>& eligible, size_t k,
                               const BenefitIndex& index);

  /// The one ranking front door every serving path uses (DESIGN.md §16):
  /// syncs the index, reads the top-k eligible tasks off the heap, and when
  /// the frontier walk exceeds its skip budget falls back to the scan over
  /// `eligible_bitmap()` (built lazily — the index fast path never pays the
  /// O(n) bitmap fill). Tallies the request-level counters. k = 0 returns
  /// at once.
  std::vector<size_t> RankWithIndex(
      const std::vector<uint32_t>& answered, BenefitIndex* index, size_t k,
      const std::function<double(size_t)>& score, uint64_t worker_epoch,
      uint64_t generation, const std::function<bool(size_t)>& eligible_one,
      const std::function<const std::vector<uint8_t>&()>& eligible_bitmap,
      const InferenceSnapshot* snap);

  /// The worker's benefit index, growing the container as needed (exclusive
  /// path only — the snapshot path reaches the index through its published
  /// pointer).
  BenefitIndex* IndexRow(size_t worker);

  /// Registration check + ValidateAnswer + BookAnswer: the admission step
  /// shared by SubmitAnswer and checkpoint replay.
  [[nodiscard]] Status AdmitAnswer(size_t worker, size_t task, size_t choice);
  /// The engine half of ApplyAnswer (OnAnswer + golden accounting) without
  /// the periodic re-inference (replay defers to one final run). False when
  /// the engine rejected the answer (unreachable after validation).
  bool AbsorbAnswer(size_t worker, size_t task, size_t choice);
  /// Full inference on the shared pool, counted for serving_counters().
  void Reinfer();

  /// Eligibility reads over the submission books.
  const std::vector<uint32_t>& Booked(size_t worker) const;
  bool HasBooked(size_t worker, size_t task) const;
  bool AtAnswerCap(size_t task) const;

  /// Lease bookkeeping (no-ops while options_.lease_duration == 0).
  void GrantLeases(size_t worker, const std::vector<size_t>& granted);
  void ReleaseLease(size_t worker, size_t task);
  static uint64_t LeaseKey(size_t worker, size_t task) {
    return (static_cast<uint64_t>(worker) << 32) | static_cast<uint32_t>(task);
  }

  const kb::KnowledgeBase* kb_;
  DocsSystemOptions options_;
  DomainVectorEstimator dve_;
  std::vector<Task> tasks_;
  std::vector<int> known_truth_;  // -1 when unknown
  GoldenSelectionResult golden_;
  std::vector<uint8_t> is_golden_;
  std::unique_ptr<IncrementalTruthInference> inference_;
  std::unordered_map<std::string, size_t> worker_index_;
  std::vector<WorkerProfile> workers_;
  size_t answers_since_reinfer_ = 0;
  uint64_t lease_clock_ = 0;
  /// (worker << 32 | task) -> logical deadline.
  std::unordered_map<uint64_t, uint64_t> leases_;
  /// Outstanding leases per task (kept in sync with leases_).
  std::vector<uint32_t> lease_count_;
  /// Submission books: per-worker sorted answered-task lists (grown on a
  /// worker's first booking) and per-task booked-answer counts, updated at
  /// ack time. They lead the engine by the inference queue depth (zero
  /// without one) and are what eligibility, the redundancy cap and duplicate
  /// detection read. Facade's assign lock.
  std::vector<std::vector<uint32_t>> answered_;
  std::vector<size_t> answers_per_task_;
  /// The one pool every hot loop the system drives fans out on — index
  /// rebuilds (exclusive and snapshot paths alike) and the engine's periodic
  /// full inference. Built once from options_.num_threads; concurrent
  /// callers share it (DESIGN.md §8).
  ThreadPool pool_;
  /// Per-worker benefit indexes (DESIGN.md §16), the one memo of benefit
  /// scores. A deque (not a vector) so an index keeps its address when later
  /// workers register — published snapshots carry raw index pointers
  /// (DESIGN.md §15) and must never dangle. Grown on the exclusive path only
  /// (IndexRow); contents guarded by the worker's shard stripe.
  std::deque<BenefitIndex> benefit_index_;
  std::atomic<uint64_t> benefit_cache_misses_{0};
  std::atomic<uint64_t> benefit_cache_request_hits_{0};
  std::atomic<uint64_t> benefit_cache_request_misses_{0};
  std::atomic<uint64_t> benefit_index_pops_{0};
  std::atomic<uint64_t> benefit_index_repairs_{0};
  std::atomic<uint64_t> benefit_index_rebuilds_{0};
  std::atomic<uint64_t> generation_invalidations_{0};
  /// Serving-path scratch, reused across SelectTasks calls so a warm request
  /// allocates nothing: the eligibility bitmap and the staged quality vector
  /// MakeScoreFn's callables read from.
  std::vector<uint8_t> eligible_scratch_;
  std::vector<double> quality_scratch_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_DOCS_SYSTEM_H_
