#include "core/inference_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace docs::core {

InferenceService::InferenceService(ApplyFn apply,
                                   InferenceServiceOptions options)
    : apply_(std::move(apply)), options_(options) {
  DOCS_CHECK(apply_ != nullptr);
  DOCS_CHECK_GE(options_.queue_capacity, 1u);
  DOCS_CHECK_GE(options_.max_batch, 1u);
}

InferenceService::~InferenceService() { Stop(); }

void InferenceService::Start() {
  {
    MutexLock lock(&queue_mutex_);
    if (started_) return;
    started_ = true;
    stop_ = false;
    last_publish_time_ = std::chrono::steady_clock::now();
  }
  thread_ = std::thread([this] { ServiceLoop(); });
}

void InferenceService::Stop() {
  {
    MutexLock lock(&queue_mutex_);
    if (!started_) return;
    stop_ = true;
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  MutexLock lock(&queue_mutex_);
  started_ = false;
}

void InferenceService::Publish(
    std::shared_ptr<const InferenceSnapshot> snapshot) {
  {
    MutexLock lock(&snapshot_mutex_);
    snapshot_ = std::move(snapshot);
  }
  MutexLock lock(&queue_mutex_);
  ++publishes_;
  const auto now = std::chrono::steady_clock::now();
  if (publishes_ > 1) {
    last_publish_gap_us_ =
        std::chrono::duration<double, std::micro>(now - last_publish_time_)
            .count();
  }
  last_publish_time_ = now;
}

std::shared_ptr<const InferenceSnapshot> InferenceService::snapshot() const {
  MutexLock lock(&snapshot_mutex_);
  return snapshot_;
}

void InferenceService::Enqueue(const PendingAnswer& answer) {
  {
    MutexLock lock(&queue_mutex_);
    while (queue_.size() - queue_head_ >= options_.queue_capacity && !stop_) {
      ++enqueue_waits_;
      not_full_.Wait(queue_mutex_);
    }
    queue_.push_back(answer);
    ++enqueued_seq_;
  }
  not_empty_.NotifyOne();
}

void InferenceService::Drain() {
  MutexLock lock(&queue_mutex_);
  const uint64_t target = enqueued_seq_;
  while (published_seq_ < target) progress_.Wait(queue_mutex_);
}

InferenceServiceStats InferenceService::stats() const {
  InferenceServiceStats out;
  {
    MutexLock lock(&queue_mutex_);
    out.publishes = publishes_;
    out.answers_enqueued = enqueued_seq_;
    out.answers_applied = applied_seq_;
    out.answers_pending = enqueued_seq_ - applied_seq_;
    out.enqueue_waits = enqueue_waits_;
    out.last_publish_gap_us = last_publish_gap_us_;
  }
  MutexLock lock(&snapshot_mutex_);
  out.snapshot_epoch = snapshot_ != nullptr ? snapshot_->epoch : 0;
  return out;
}

void InferenceService::ServiceLoop() {
  std::vector<PendingAnswer> batch;
  while (true) {
    batch.clear();
    {
      MutexLock lock(&queue_mutex_);
      while (queue_head_ >= queue_.size() && !stop_) {
        not_empty_.Wait(queue_mutex_);
      }
      // On stop, keep cycling until the queue is empty: every answer acked
      // before the shutdown still reaches the engine.
      if (queue_head_ >= queue_.size()) return;
      const size_t take = std::min(options_.max_batch,
                                   queue_.size() - queue_head_);
      batch.assign(queue_.begin() + static_cast<ptrdiff_t>(queue_head_),
                   queue_.begin() + static_cast<ptrdiff_t>(queue_head_ + take));
      queue_head_ += take;
      if (queue_head_ >= queue_.size()) {
        queue_.clear();
        queue_head_ = 0;
      }
    }
    not_full_.NotifyAll();

    // The apply runs with no service lock held: the owner takes its state
    // lock inside (and publishes under it), producers keep enqueueing,
    // snapshot readers keep serving.
    apply_(batch);
    {
      MutexLock lock(&queue_mutex_);
      applied_seq_ += batch.size();
      published_seq_ = applied_seq_;
    }
    progress_.NotifyAll();
  }
}

}  // namespace docs::core
