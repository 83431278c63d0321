#ifndef DOCS_CORE_INFERENCE_SERVICE_H_
#define DOCS_CORE_INFERENCE_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "core/incremental_ti.h"
#include "core/task_assignment.h"

namespace docs::core {

/// One worker's serving view as of a publish (DESIGN.md §15).
struct WorkerSnapshot {
  std::vector<double> quality;
  /// The worker's inference epoch at publish time. The snapshot scoring path
  /// tags the worker's index with it, so the index goes stale the moment a
  /// newer snapshot (or the exclusive path) observes a later epoch.
  uint64_t epoch = 0;
  /// True when the snapshot path may serve this worker: registered and past
  /// the golden probe (the probe mutates her profile — exclusive-path work).
  bool servable = false;
  /// The worker's live benefit index (DESIGN.md §16), published by pointer:
  /// the object's *address* is publish-stable (a deque element, never moved)
  /// and its contents stay guarded by the worker's shard stripe. Indexing
  /// the owner's container from the lock-free snapshot path would race
  /// container growth; the pointer cannot.
  BenefitIndex* index = nullptr;
};

/// An immutable picture of the inference state, published via shared_ptr
/// swap (RCU-style: readers copy the pointer under a leaf mutex and then
/// read freely; the retiring snapshot dies when its last reader drops it).
struct InferenceSnapshot {
  /// Publish sequence number, starting at 1 for the initial (empty) publish.
  uint64_t epoch = 0;
  /// The engine's invalidation generation at publish time (DESIGN.md §16):
  /// a full re-inference bumps no worker epoch, so the worker-view sharing
  /// and the serving path's index tags compare the generation too.
  uint64_t generation = 0;
  /// The engine's mutation-log window at publish time (DESIGN.md §16): the
  /// tasks whose posterior moved at absolute sequence numbers
  /// [mutation_log.begin(), mutation_log.end()), sharing the engine's log
  /// segments by pointer. The snapshot describes the engine exactly as of
  /// the window's end, so an index whose cursor lies inside the window —
  /// however many publishes behind — repairs the tail instead of rebuilding.
  MutationLog mutation_log;
  /// Task posteriors: the engine's own chunks, by pointer (SharePosteriors),
  /// so consecutive snapshots share every chunk no answer touched.
  std::vector<std::shared_ptr<const PosteriorChunk>> task_chunks;
  std::vector<std::shared_ptr<const WorkerSnapshot>> workers;

  const TaskPosterior& task(size_t i) const {
    constexpr size_t kChunk = IncrementalTruthInference::kTasksPerChunk;
    return (*task_chunks[i / kChunk])[i % kChunk];
  }
};

/// One validated answer awaiting application to the inference engine.
struct PendingAnswer {
  size_t worker = 0;
  size_t task = 0;
  size_t choice = 0;
};

struct InferenceServiceOptions {
  /// Bound on answers enqueued but not yet applied; producers block
  /// (backpressure) once the queue is full. Must be >= 1.
  size_t queue_capacity = 1024;
  /// Answers applied per state-lock acquisition: the service drains up to
  /// this many per cycle before publishing, so a burst amortizes both the
  /// exclusive lock and the snapshot copy.
  size_t max_batch = 256;
};

/// Staleness observability (GatewayStats / bench_server --json surface
/// these). Each field is an independent sample, not a consistent snapshot.
struct InferenceServiceStats {
  uint64_t snapshot_epoch = 0;
  uint64_t publishes = 0;
  uint64_t answers_enqueued = 0;
  uint64_t answers_applied = 0;
  uint64_t answers_pending = 0;
  /// Times a producer blocked on a full queue (backpressure events).
  uint64_t enqueue_waits = 0;
  /// Wall time between the two most recent publishes, microseconds.
  double last_publish_gap_us = 0.0;
};

/// The snapshot holder and, in async mode, the background inference thread
/// (DESIGN.md §15). snapshot() is what every post-golden RequestTasks scores
/// against — a leaf-mutex pointer copy. Once Start()ed, the thread consumes
/// submitted answers from a bounded MPSC queue and applies them to the
/// owner's engine via the `apply` callback (which runs retro-updates and the
/// periodic full EM under the owner's exclusive state lock, then publishes).
/// Never started (sync mode), it only holds the snapshot the owner
/// publishes. The serving path never waits on an apply.
///
/// Lock discipline (DESIGN.md §14/§15): queue_mutex_ and snapshot_mutex_ are
/// leaves of the serving hierarchy. The service thread holds NEITHER while
/// inside `apply` (which takes the state lock), and producers hold no state
/// lock while enqueueing — so the queue mutex EXCLUDES the state lock by
/// construction and a full queue can never deadlock against a running EM.
class InferenceService {
 public:
  /// Applies one FIFO batch to the owner's engine and Publish()es the fresh
  /// snapshot before returning. Runs exclusively on the service thread; the
  /// owner acquires its own locks inside and publishes under them, so every
  /// publish — this thread's and the owner's own — is totally ordered.
  using ApplyFn = std::function<void(const std::vector<PendingAnswer>&)>;

  explicit InferenceService(ApplyFn apply, InferenceServiceOptions options = {});
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Spawns the service thread. Call after the owner published the initial
  /// snapshot with Publish(); idempotent is NOT required — call once.
  void Start();

  /// Drains the queue (every enqueued answer is applied and published), then
  /// joins the thread. Producers must have quiesced first: an Enqueue racing
  /// Stop() may be dropped. Idempotent.
  void Stop();

  /// Installs `snapshot` as the current one. The owner calls it under its
  /// exclusive state lock (from `apply`, at ingest, on a lazy republish), so
  /// epochs only grow.
  void Publish(std::shared_ptr<const InferenceSnapshot> snapshot);

  /// The current snapshot; never nullptr after the initial Publish(). A leaf
  /// lock copy — callers keep the shared_ptr for the whole scoring pass.
  std::shared_ptr<const InferenceSnapshot> snapshot() const;

  /// Queues one validated answer, blocking while the queue is at capacity
  /// (backpressure). The caller must hold no lock the apply path takes.
  void Enqueue(const PendingAnswer& answer);

  /// Quiesce barrier: returns once every answer enqueued before the call is
  /// applied AND visible in a published snapshot. Immediate when nothing was
  /// ever enqueued (a never-started service).
  void Drain();

  InferenceServiceStats stats() const;

 private:
  void ServiceLoop();

  const ApplyFn apply_;
  const InferenceServiceOptions options_;

  /// Guards the queue, sequence counters, and lifecycle flags. Leaf with
  /// respect to the owner's state lock: never held across apply_.
  mutable Mutex queue_mutex_;
  std::vector<PendingAnswer> queue_ DOCS_GUARDED_BY(queue_mutex_);
  /// FIFO cursor into queue_ (drained in batches; compacted when empty).
  size_t queue_head_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  uint64_t enqueued_seq_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  uint64_t applied_seq_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  /// applied_seq_ as of the latest publish: Drain() waits on this, so a
  /// drained caller is guaranteed a snapshot that includes its answers.
  uint64_t published_seq_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  uint64_t publishes_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  uint64_t enqueue_waits_ DOCS_GUARDED_BY(queue_mutex_) = 0;
  double last_publish_gap_us_ DOCS_GUARDED_BY(queue_mutex_) = 0.0;
  bool stop_ DOCS_GUARDED_BY(queue_mutex_) = false;
  bool started_ DOCS_GUARDED_BY(queue_mutex_) = false;
  std::chrono::steady_clock::time_point last_publish_time_
      DOCS_GUARDED_BY(queue_mutex_);
  CondVar not_empty_;
  CondVar not_full_;
  CondVar progress_;

  /// Leaf of the whole serving hierarchy: guards only the snapshot pointer.
  /// Readers copy the shared_ptr and release immediately.
  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const InferenceSnapshot> snapshot_
      DOCS_GUARDED_BY(snapshot_mutex_);

  std::thread thread_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_INFERENCE_SERVICE_H_
