#include "core/concurrent_docs_system.h"

#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace docs::core {

ConcurrentDocsSystem::ConcurrentDocsSystem(
    const kb::KnowledgeBase* knowledge_base, DocsSystemOptions options)
    : async_(options.async_inference), system_(knowledge_base, options) {
  // Constructed here (started at ingest in async mode) so the pointer never
  // changes while another thread can observe it — async_stats() and the
  // serving paths read it lock-free.
  InferenceServiceOptions service_options;
  service_options.queue_capacity = options.async_queue_capacity;
  service_ = std::make_unique<InferenceService>(
      [this](const std::vector<PendingAnswer>& batch) { ApplyBatch(batch); },
      service_options);
}

ConcurrentDocsSystem::~ConcurrentDocsSystem() {
  // Explicit for clarity only: service_ is declared last, so its destructor
  // (which drains and joins the apply thread) runs before system_ dies.
  service_->Stop();
}

Status ConcurrentDocsSystem::AddTasks(const std::vector<TaskInput>& inputs,
                                      const std::vector<size_t>* known_truths) {
  WriterLock lock(&state_mutex_);
  Status status = system_.AddTasks(inputs, known_truths);
  if (status.ok()) StartServingLocked();
  return status;
}

void ConcurrentDocsSystem::StartServingLocked() {
  (void)PublishLocked();
  if (async_) service_->Start();
}

void ConcurrentDocsSystem::SyncRegistryFromStateLocked() {
  const size_t count = system_.inference().num_workers();
  WriterLock reg(&registry_mutex_);
  for (size_t w = registered_count_; w < count; ++w) {
    registry_.emplace(system_.worker_external_id(w), w);
  }
  registered_count_ = count;
}

std::shared_ptr<const InferenceSnapshot> ConcurrentDocsSystem::PublishLocked() {
  // Every publish runs under the exclusive state lock, so publishes are
  // totally ordered and the epoch only grows, whichever thread publishes.
  std::shared_ptr<const InferenceSnapshot> prev = service_->snapshot();
  service_->Publish(system_.BuildSnapshot(prev.get()));
  snapshot_stale_.store(false, std::memory_order_relaxed);
  // Workers registered by the exclusive path since the last publish become
  // resolvable without the state lock from here on.
  SyncRegistryFromStateLocked();
  return prev;
}

std::shared_ptr<const InferenceSnapshot> ConcurrentDocsSystem::FreshSnapshot() {
  if (snapshot_stale_.load(std::memory_order_acquire)) {
    // Declared before the lock: the retired snapshot is freed after the
    // state lock is released.
    std::shared_ptr<const InferenceSnapshot> retired;
    WriterLock lock(&state_mutex_);
    if (snapshot_stale_.load(std::memory_order_relaxed)) {
      retired = PublishLocked();
    }
  }
  return service_->snapshot();
}

void ConcurrentDocsSystem::ApplyBatch(const std::vector<PendingAnswer>& batch) {
  std::shared_ptr<const InferenceSnapshot> retired;  // freed after the locks
  WriterLock lock(&state_mutex_);
  // The periodic full EM inside ApplyAnswer fans out on the system's pool
  // alongside whatever snapshot scorers run meanwhile.
  for (const PendingAnswer& answer : batch) {
    if (async_apply_hook_) async_apply_hook_(answer);
    Status status = system_.ApplyAnswer(answer.worker, answer.task,
                                        answer.choice);
    if (!status.ok()) {
      // Unreachable for a correctly booked answer; surfaced, not silently
      // dropped, if it ever fires.
      DOCS_LOG(Warning) << "async apply rejected a booked answer: "
                        << status.ToString();
    }
  }
  retired = PublishLocked();
}

std::optional<size_t> ConcurrentDocsSystem::FindRegistered(
    const std::string& worker_id) {
  ReaderLock reg(&registry_mutex_);
  auto it = registry_.find(worker_id);
  if (it == registry_.end()) return std::nullopt;
  return it->second;
}

std::optional<size_t> ConcurrentDocsSystem::ResolveWorker(
    const std::string& worker_id) {
  if (std::optional<size_t> worker = FindRegistered(worker_id)) return worker;
  WriterLock lock(&state_mutex_);
  const std::optional<size_t> worker = system_.FindWorker(worker_id);
  if (worker.has_value()) SyncRegistryFromStateLocked();
  return worker;
}

std::vector<size_t> ConcurrentDocsSystem::RequestTasks(
    const std::string& worker_id, size_t k) {
  if (const std::optional<size_t> worker = FindRegistered(worker_id)) {
    // Pin the current snapshot for the whole pass; a publish mid-pass
    // retires the old epoch without touching it.
    const std::shared_ptr<const InferenceSnapshot> snap = FreshSnapshot();
    if (snap != nullptr && *worker < snap->workers.size() &&
        snap->workers[*worker] != nullptr && snap->workers[*worker]->servable) {
      return ServeSnapshot(*snap, *worker, k);
    }
  }
  // Cold path: first contact, golden probes, or a worker not yet servable in
  // the published snapshot. Exclusive over state — serialized against every
  // apply and publish — plus her shard stripe (a concurrent snapshot pass
  // for the same worker syncs her index under it) and the assign lock
  // (lease + submission books).
  WriterLock lock(&state_mutex_);
  const size_t index = system_.WorkerIndex(worker_id);
  SyncRegistryFromStateLocked();
  std::vector<size_t> selected;
  {
    MutexLock shard_lock(&shards_[index % kNumShards].mutex);
    MutexLock assign(&assign_mutex_);
    selected = system_.SelectTasks(index, k);
  }
  // A servable worker served cold is missing from the snapshot (just
  // registered, or past golden since the last publish): the next request
  // republishes, so her later requests take the snapshot path.
  if (system_.golden_done(index)) {
    snapshot_stale_.store(true, std::memory_order_release);
  }
  return selected;
}

std::vector<size_t> ConcurrentDocsSystem::ServeSnapshot(
    const InferenceSnapshot& snap, size_t worker, size_t k) {
  WorkerShard& shard = shards_[worker % kNumShards];
  // The shard lock serializes access to the worker's index and hands this
  // request exclusive use of the shard's scoring scratch.
  MutexLock shard_lock(&shard.mutex);
  for (int attempt = 0;; ++attempt) {
    {
      MutexLock assign(&assign_mutex_);
      UnlockedSystem().BeginShardedSelect(worker, shard.scratch);
    }
    // Concurrent passes share the system's one pool, each draining its own
    // chunks (DESIGN.md §8), so no pass waits for another to fan out.
    std::vector<size_t> selected =
        UnlockedSystem().ScoreAndRankSnapshot(snap, worker, shard.scratch, k);
    {
      MutexLock assign(&assign_mutex_);
      // A commit conflict means another shard granted the last cap slot of a
      // selected task mid-scoring; rescore from a fresh eligibility
      // snapshot, and after two clean retries force through without the
      // conflicted tasks.
      const bool force = attempt >= 2;
      if (UnlockedSystem().CommitShardedSelect(worker, &selected, force)) {
        return selected;
      }
    }
  }
}

Status ConcurrentDocsSystem::BookAnswer(size_t worker, size_t task,
                                        size_t choice) {
  // The books make the submission's side effects (duplicate rejection, cap
  // accounting, lease release) visible at ack time, before the engine
  // absorbs the answer.
  MutexLock assign(&assign_mutex_);
  Status status = UnlockedSystem().ValidateAnswer(worker, task, choice);
  if (status.ok()) UnlockedSystem().BookAnswer(worker, task);
  return status;
}

Status ConcurrentDocsSystem::SubmitAnswer(const std::string& worker_id,
                                          size_t task, size_t choice) {
  const std::optional<size_t> worker = ResolveWorker(worker_id);
  if (!worker.has_value()) {
    return InvalidArgumentError("unknown worker '" + worker_id +
                                "': never seen by RequestTasks/LoadWorker");
  }
  if (async_) {
    // Book, then enqueue with no lock held (Enqueue blocks on a full queue —
    // backpressure must not pin the lease books).
    Status status = BookAnswer(*worker, task, choice);
    if (status.ok()) service_->Enqueue({*worker, task, choice});
    return status;
  }
  // Staleness 0: book and apply in one exclusive hold, then mark the
  // snapshot stale so the next RequestTasks republishes before it serves.
  WriterLock lock(&state_mutex_);
  Status status = BookAnswer(*worker, task, choice);
  if (!status.ok()) return status;
  status = system_.ApplyAnswer(*worker, task, choice);
  snapshot_stale_.store(true, std::memory_order_release);
  return status;
}

bool ConcurrentDocsSystem::KnowsWorker(const std::string& worker_id) {
  return ResolveWorker(worker_id).has_value();
}

void ConcurrentDocsSystem::Drain() { service_->Drain(); }

AsyncInferenceStats ConcurrentDocsSystem::async_stats() const {
  AsyncInferenceStats out;
  if (!async_) return out;
  out.enabled = true;
  out.service = service_->stats();
  out.last_sweep_epoch = last_sweep_epoch_.load(std::memory_order_relaxed);
  return out;
}

std::vector<ExpiredLease> ConcurrentDocsSystem::ExpireLeases(uint64_t now) {
  // The sweep reads only assign-guarded lease books — never live inference
  // state — so it cannot observe a half-applied retro-update no matter where
  // an apply is. The snapshot epoch is sampled first and recorded so
  // observers can bound which publish the sweep was consistent with
  // (tests/gateway_test.cc races sweeps against publishes; DESIGN.md §15).
  const std::shared_ptr<const InferenceSnapshot> snap = service_->snapshot();
  const uint64_t epoch = snap != nullptr ? snap->epoch : 0;
  std::vector<ExpiredLease> expired;
  {
    MutexLock assign(&assign_mutex_);
    expired = UnlockedSystem().ExpireLeases(now);
  }
  last_sweep_epoch_.store(epoch, std::memory_order_relaxed);
  return expired;
}

Status ConcurrentDocsSystem::LoadWorker(const std::string& worker_id,
                                        const storage::WorkerStore& store) {
  // The seed reshapes the worker's quality out-of-band; drain so it lands on
  // converged state (sync-mode timing), then let the next request republish
  // so the snapshot serves the seeded profile.
  Drain();
  WriterLock lock(&state_mutex_);
  Status status = system_.LoadWorker(worker_id, store);
  if (status.ok()) {
    SyncRegistryFromStateLocked();
    snapshot_stale_.store(true, std::memory_order_release);
  }
  return status;
}

uint64_t ConcurrentDocsSystem::lease_clock() {
  // The clock is assign-guarded and the reactor lease sweeps read it on
  // their serving threads — taking the state lock here would stall a reactor
  // behind a running EM pass.
  MutexLock assign(&assign_mutex_);
  return UnlockedSystem().lease_clock();
}

size_t ConcurrentDocsSystem::num_tasks() {
  ReaderLock state(&state_mutex_);
  return system_.tasks().size();
}

size_t ConcurrentDocsSystem::outstanding_leases() {
  MutexLock assign(&assign_mutex_);
  return UnlockedSystem().outstanding_leases();
}

std::vector<size_t> ConcurrentDocsSystem::InferredChoices() {
  // Quiesce first: the inferred truths must reflect every acked answer.
  Drain();
  WriterLock lock(&state_mutex_);
  return system_.InferredChoices();
}

size_t ConcurrentDocsSystem::num_answers() {
  ReaderLock state(&state_mutex_);
  return system_.inference().num_answers();
}

void ConcurrentDocsSystem::RunFullInference() {
  // Drain → run on converged state; the next request republishes the
  // result.
  Drain();
  WriterLock lock(&state_mutex_);
  system_.RunFullInference();
  snapshot_stale_.store(true, std::memory_order_release);
}

std::vector<std::string> ConcurrentDocsSystem::WorkerIds() {
  ReaderLock state(&state_mutex_);
  return system_.WorkerIds();
}

Status ConcurrentDocsSystem::SaveCheckpoint(const std::string& path) {
  // Quiesce first so the checkpoint contains every acked answer — the
  // durable layer truncates its WAL after a checkpoint, and an acked answer
  // must never exist in neither.
  Drain();
  // Checkpoint state is tasks, golden set, seeds and answers — leases are
  // volatile by contract — so a shared lock suffices.
  ReaderLock state(&state_mutex_);
  return system_.SaveCheckpoint(path);
}

Status ConcurrentDocsSystem::LoadCheckpoint(const std::string& path) {
  WriterLock lock(&state_mutex_);
  Status status = system_.LoadCheckpoint(path);
  if (status.ok()) StartServingLocked();
  return status;
}

Status ConcurrentDocsSystem::SaveCheckpointWithRetry(
    const std::string& path, const CheckpointRetryOptions& retry) {
  const size_t attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  std::chrono::duration<double, std::milli> backoff = retry.initial_backoff;
  Status status;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= retry.backoff_multiplier;
    }
    status = SaveCheckpoint(path);
    if (status.ok()) return status;
  }
  return status;
}

}  // namespace docs::core
