#ifndef DOCS_CORE_CONCURRENT_DOCS_SYSTEM_H_
#define DOCS_CORE_CONCURRENT_DOCS_SYSTEM_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "core/docs_system.h"
#include "core/inference_service.h"

namespace docs::core {

/// Bounded retry policy for checkpoint saves: transient storage failures
/// (full disk, slow NFS, an injected fault) are retried with exponential
/// backoff instead of dropping the snapshot on the floor.
struct CheckpointRetryOptions {
  size_t max_attempts = 5;
  std::chrono::milliseconds initial_backoff{1};
  double backoff_multiplier = 2.0;
};

/// Staleness observability for async mode (DESIGN.md §15): the service's
/// counters plus the snapshot epoch the last lease sweep ran against. All
/// zero when async mode is off.
struct AsyncInferenceStats {
  bool enabled = false;
  InferenceServiceStats service;
  uint64_t last_sweep_epoch = 0;
};

/// Thread-safe facade over DocsSystem for a serving deployment: the real
/// system sits behind a web frontend where AMT's callbacks (task requests,
/// answer submissions) arrive concurrently.
///
/// One serving path (DESIGN.md §13-§15): every post-golden RequestTasks — a
/// known, golden-complete worker asking for her next HIT, the hot path —
/// scores a pinned, immutable InferenceSnapshot and never takes the state
/// lock. Its few shared writes are funneled through narrow mutexes:
///  - a per-worker shard lock (worker index mod kNumShards) guarding her
///    benefit index and reusable scoring scratch, so concurrent requests
///    from different workers score genuinely in parallel;
///  - one assign lock guarding the lease books, logical clock and submission
///    books, held only for the O(n) eligibility snapshot and the O(k) grant
///    commit.
/// DocsSystemOptions::async_inference decides only what SubmitAnswer does
/// with a validated, booked answer:
///  - sync (staleness 0): apply it inline under the exclusive state lock,
///    mark the snapshot stale, ack — the next RequestTasks republishes
///    before it serves, so every ack is visible to the requests after it;
///  - async (staleness bounded by the queue): enqueue it onto a background
///    InferenceService thread, which applies and publishes in batches, and
///    ack — an answer burst (retro-update fan-out, the periodic full EM)
///    never blocks a serving call.
/// First contact (registration grows shared structure), golden probes and
/// every other mutation — checkpoint restore, worker reseed, full inference
/// — take the state lock exclusively.
///
/// The scoring thread pool stays engine-owned and deterministic (DESIGN.md
/// §8), and needs no lock: snapshot scorers, the cold path and the apply
/// path's EM pass all fan out on it at once, each caller draining its own
/// chunks — bit-identical whoever else is running, because the ranking and
/// the EM pass are thread-count invariant.
///
/// Lock hierarchy (acquire left-to-right, never right-to-left; DESIGN.md
/// §14, machine-checked via the DOCS_* annotations below):
///   state (shared or exclusive) → shard → assign → registry.
/// A sync SubmitAnswer holds state, then assign (validate + book), then
/// applies under state alone. The InferenceService's queue and snapshot
/// mutexes are leaves: publishes take them under the state lock, and nothing
/// holding them takes any lock above (the service thread holds neither while
/// applying; producers hold nothing while enqueueing), so the queue EXCLUDES
/// the state lock by construction.
class ConcurrentDocsSystem {
 public:
  ConcurrentDocsSystem(const kb::KnowledgeBase* knowledge_base,
                       DocsSystemOptions options = {});
  ~ConcurrentDocsSystem();

  [[nodiscard]] Status AddTasks(const std::vector<TaskInput>& inputs,
                                const std::vector<size_t>* known_truths =
                                    nullptr) DOCS_EXCLUDES(state_mutex_);

  /// Atomically resolves the worker id and selects her next HIT. Known
  /// workers past the golden phase are served from the published snapshot
  /// (republished first when stale), parallel across worker shards; first
  /// contact and golden probes fall back to the exclusive path.
  std::vector<size_t> RequestTasks(const std::string& worker_id, size_t k)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_, registry_mutex_);

  /// Atomically resolves the worker id and submits one answer. Invalid
  /// submissions (unknown task, out-of-range choice, duplicate (worker,
  /// task) pair) are rejected with the reason instead of silently dropped —
  /// the web frontend can surface it to the platform. A worker id never seen
  /// by RequestTasks/LoadWorker is rejected too: resolving it here would
  /// silently register a fresh worker for every malformed or forged id the
  /// network delivers.
  [[nodiscard]] Status SubmitAnswer(const std::string& worker_id, size_t task,
                                    size_t choice)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_, registry_mutex_);

  /// Reclaims every lease whose logical deadline is at or before `now`
  /// (workers who accepted a HIT and vanished); the freed tasks are
  /// immediately assignable again. Serving deployments call this on a timer.
  /// Touches only the lease books, so it runs under the assign lock alone —
  /// a sweep never stalls behind an apply or an EM pass.
  std::vector<ExpiredLease> ExpireLeases(uint64_t now)
      DOCS_EXCLUDES(assign_mutex_);

  /// Seeds a returning worker's quality profile from the persistent store;
  /// the worker is registered and skips the golden probe (Theorem 1 state).
  [[nodiscard]] Status LoadWorker(const std::string& worker_id,
                                  const storage::WorkerStore& store)
      DOCS_EXCLUDES(state_mutex_, registry_mutex_);

  uint64_t lease_clock() DOCS_EXCLUDES(assign_mutex_);
  size_t num_tasks() DOCS_EXCLUDES(state_mutex_);
  size_t outstanding_leases() DOCS_EXCLUDES(assign_mutex_);
  std::vector<size_t> InferredChoices() DOCS_EXCLUDES(state_mutex_);
  size_t num_answers() DOCS_EXCLUDES(state_mutex_);

  /// Forces a full inference pass (the recovery bit-equality oracle; see
  /// DocsSystem::RunFullInference).
  void RunFullInference() DOCS_EXCLUDES(state_mutex_);

  /// Registered worker ids in registration order.
  std::vector<std::string> WorkerIds() DOCS_EXCLUDES(state_mutex_);

  /// Benefit-index counters (DESIGN.md §16): relaxed
  /// atomic loads, no lock — a stats poll never waits behind an apply batch
  /// or an EM pass.
  ServingCounters serving_counters() {
    return UnlockedSystem().serving_counters();
  }

  [[nodiscard]] Status SaveCheckpoint(const std::string& path)
      DOCS_EXCLUDES(state_mutex_);
  [[nodiscard]] Status LoadCheckpoint(const std::string& path)
      DOCS_EXCLUDES(state_mutex_);

  /// SaveCheckpoint with bounded retry: sleeps between attempts with
  /// exponential backoff (outside the lock, so serving calls proceed while
  /// the saver waits out a transient storage failure). Returns the last
  /// attempt's status.
  [[nodiscard]] Status SaveCheckpointWithRetry(
      const std::string& path, const CheckpointRetryOptions& retry = {});

  /// Runs `fn` under the exclusive lock with direct access to the underlying
  /// system — for setup/inspection that needs several calls to be atomic.
  /// The snapshot is marked stale (fn may have mutated what it was built
  /// from).
  /// Async-mode callers that read inference state should Drain() first: the
  /// lock serializes against the service thread, but queued answers are
  /// otherwise still in flight.
  template <typename Fn>
  auto WithLocked(Fn&& fn) DOCS_EXCLUDES(state_mutex_) {
    WriterLock lock(&state_mutex_);
    snapshot_stale_.store(true, std::memory_order_release);
    return fn(system_);
  }

  /// True when `worker_id` is already registered (registry first, then the
  /// state table). The durable layer gates its lock-free warm path on this
  /// so registration stays on the recovery-ordered exclusive path.
  bool KnowsWorker(const std::string& worker_id)
      DOCS_EXCLUDES(state_mutex_, registry_mutex_);

  /// Quiesce barrier: returns once every answer acked before the call is
  /// applied and visible in a published snapshot. Immediate in sync mode,
  /// where an ack already implies it. Callers must hold no lock (the apply
  /// path takes state).
  void Drain() DOCS_EXCLUDES(state_mutex_, assign_mutex_);

  /// Staleness counters; safe to call concurrently with serving. All-zero /
  /// disabled in sync mode, whose staleness is 0 by construction.
  AsyncInferenceStats async_stats() const;

  /// Test hook: runs on the async service thread immediately before each
  /// answer is applied, under the exclusive state lock (e.g. to slow an
  /// apply/EM pass down deliberately). Must be
  /// installed before AddTasks/LoadCheckpoint — the service reads it
  /// unsynchronized once running.
  void SetAsyncApplyHookForTest(std::function<void(const PendingAnswer&)> hook) {
    async_apply_hook_ = std::move(hook);
  }

 private:
  /// Worker-shard count: a fixed power of two well above any realistic
  /// reactor count, so concurrent requests rarely collide on a shard.
  static constexpr size_t kNumShards = 16;

  /// One lock stripe: guards the scoring scratch below and the benefit
  /// indexes of every worker hashing to this shard. Cache-line
  /// aligned so two reactors hammering adjacent shards do not false-share.
  struct alignas(64) WorkerShard {
    Mutex mutex;
    /// Guarded by `mutex` (declared via the annotation so the analysis binds
    /// the scratch to its own stripe, not a sibling's).
    DocsSystem::ShardScratch scratch DOCS_GUARDED_BY(mutex);
  };

  /// The snapshot serving path: eligibility → score → commit against `snap`
  /// under `worker`'s shard stripe (plus assign for the lease phases) — no
  /// state lock anywhere, so a concurrent apply, EM pass or republish never
  /// blocks it. Retries on a commit-time redundancy-cap conflict (forced
  /// through, dropping only the conflicted tasks, on the final attempt so a
  /// hot task cannot livelock the request).
  std::vector<size_t> ServeSnapshot(const InferenceSnapshot& snap,
                                    size_t worker, size_t k)
      DOCS_EXCLUDES(state_mutex_, assign_mutex_);

  /// The current snapshot, republished first if an answer or another
  /// mutation since the last publish marked it stale.
  std::shared_ptr<const InferenceSnapshot> FreshSnapshot()
      DOCS_EXCLUDES(state_mutex_, registry_mutex_);

  /// Builds and publishes the next snapshot, clears the stale mark and
  /// mirrors new registrations into the registry. Returns the retired
  /// snapshot so the caller can drop it after releasing the state lock.
  std::shared_ptr<const InferenceSnapshot> PublishLocked()
      DOCS_REQUIRES(state_mutex_) DOCS_EXCLUDES(registry_mutex_);

  /// Registry lookup only (no state lock).
  std::optional<size_t> FindRegistered(const std::string& worker_id)
      DOCS_EXCLUDES(registry_mutex_);

  /// FindRegistered, falling back to the state table for workers registered
  /// behind the registry's back (WithLocked, e.g. WAL recovery).
  std::optional<size_t> ResolveWorker(const std::string& worker_id)
      DOCS_EXCLUDES(state_mutex_, registry_mutex_);

  /// Validates and books one submission under the assign lock.
  [[nodiscard]] Status BookAnswer(size_t worker, size_t task, size_t choice)
      DOCS_EXCLUDES(assign_mutex_);

  /// Mirrors newly registered workers into the registry (incremental: only
  /// indices past the last sync).
  void SyncRegistryFromStateLocked() DOCS_REQUIRES(state_mutex_)
      DOCS_EXCLUDES(registry_mutex_);

  /// Registry + initial snapshot (+ the service thread in async mode), after
  /// a successful ingest/restore.
  void StartServingLocked() DOCS_REQUIRES(state_mutex_)
      DOCS_EXCLUDES(registry_mutex_);

  /// The InferenceService's apply callback: runs on the service thread,
  /// applies one FIFO batch under the exclusive state lock, and publishes
  /// the next snapshot copy-on-write.
  void ApplyBatch(const std::vector<PendingAnswer>& batch)
      DOCS_EXCLUDES(state_mutex_);

  /// Narrow, documented escape hatch from system_'s GUARDED_BY(state_mutex_)
  /// for the paths that by design run without the state lock. Every member
  /// they reach is protected by a finer lock the caller holds (assign for
  /// the submission and lease books, the shard stripe for benefit indexes),
  /// is atomic (the serving counters), or is immutable after
  /// ingest (tasks, options) — see the locking notes on DocsSystem's serving
  /// plumbing.
  DocsSystem& UnlockedSystem() DOCS_NO_THREAD_SAFETY_ANALYSIS {
    return system_;
  }

  /// Top of the hierarchy: every other lock here is acquired strictly after
  /// it (exclusive for mutators and republishes, shared for read-only
  /// inspection).
  SharedMutex state_mutex_
      DOCS_ACQUIRED_BEFORE(assign_mutex_, registry_mutex_);
  /// Lease books, logical clock and submission books; taken after state and
  /// any shard stripe, never before one. The ONLY lock the lease paths
  /// (sweeps, grants, releases) need.
  Mutex assign_mutex_ DOCS_ACQUIRED_BEFORE(registry_mutex_);
  WorkerShard shards_[kNumShards];
  /// Worker registry: external id → dense index, mirrored from the state
  /// table so the serving calls resolve ids without the state lock. Writers
  /// hold state (exclusive) + registry; readers registry alone.
  mutable SharedMutex registry_mutex_;
  std::unordered_map<std::string, size_t> registry_
      DOCS_GUARDED_BY(registry_mutex_);
  /// Worker count already mirrored (indices < this are in the registry).
  size_t registered_count_ DOCS_GUARDED_BY(registry_mutex_) = 0;
  /// Fixed at construction.
  const bool async_;
  /// See SetAsyncApplyHookForTest: written before the service starts only.
  std::function<void(const PendingAnswer&)> async_apply_hook_;
  /// Snapshot epoch the last lease sweep was consistent with.
  std::atomic<uint64_t> last_sweep_epoch_{0};
  /// Set (under the exclusive state lock) by every mutation the published
  /// snapshot does not reflect — an inline answer, a reseed, a full
  /// inference, a servable worker served cold; cleared by every publish.
  std::atomic<bool> snapshot_stale_{false};
  /// The wrapped engine. Hold state_mutex_ exclusively for anything that
  /// mutates shared structure. The snapshot paths go through
  /// UnlockedSystem() under the finer-lock contract documented there.
  DocsSystem system_ DOCS_GUARDED_BY(state_mutex_);
  /// The snapshot holder, plus the background inference thread in async
  /// mode; constructed in the constructor (started at ingest in async mode),
  /// so the pointer is immutable while any other thread can observe it.
  /// Declared last: destroyed first, and its destructor joins the thread
  /// before system_ can die under it.
  std::unique_ptr<InferenceService> service_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_CONCURRENT_DOCS_SYSTEM_H_
