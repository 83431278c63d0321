#include "common/parallel.h"

namespace docs {

size_t DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t EffectiveThreadCount(size_t requested) {
  return requested == 0 ? DefaultThreadCount() : requested;
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t total = EffectiveThreadCount(num_threads);
  workers_.reserve(total - 1);
  for (size_t t = 0; t + 1 < total; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::RunChunks(Job& job) {
  size_t ran = 0;
  // A plain fetch_add suffices: the job cannot die under a thread inside it
  // (its caller waits for helpers == 0), and overshooting `next` past the end
  // only tells later claimers there is nothing left.
  for (size_t chunk = job.next.fetch_add(1); chunk < job.num_chunks;
       chunk = job.next.fetch_add(1)) {
    try {
      job.fn(chunk);
    } catch (...) {
      MutexLock lock(&mutex_);
      if (job.first_error == nullptr) {
        job.first_error = std::current_exception();
      }
    }
    // A chunk whose fn threw still counts as completed — Run() must never
    // wait for work nobody will redo.
    ++ran;
  }
  return ran;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(&mutex_);
      // Explicit predicate loop (not a wait-with-lambda): the guarded reads
      // stay in this function, where the analysis can see the lock is held.
      for (;;) {
        if (shutdown_) return;
        for (Job* open : jobs_) {
          if (open->next.load() < open->num_chunks) {
            job = open;
            break;
          }
        }
        if (job != nullptr) break;
        work_cv_.Wait(mutex_);
      }
      // Registered and entered under one hold: the caller cannot unregister
      // the job and stop waiting until this thread has left it again.
      ++job->helpers;
    }
    const size_t ran = RunChunks(*job);
    MutexLock lock(&mutex_);
    job->done += ran;
    if (--job->helpers == 0 && job->done == job->num_chunks) {
      done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::Run(size_t num_chunks, const std::function<void(size_t)>& fn) {
  if (num_chunks == 0) return;
  if (workers_.empty() || num_chunks == 1) {
    for (size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }
  Job job(fn, num_chunks);
  {
    MutexLock lock(&mutex_);
    jobs_.push_back(&job);
  }
  work_cv_.NotifyAll();
  // The caller drains its own job, so it finishes even when every worker is
  // busy helping other callers.
  const size_t ran = RunChunks(job);
  std::exception_ptr error;
  {
    MutexLock lock(&mutex_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    job.done += ran;
    // Every chunk is claimed. Once the helpers still inside have reported,
    // none of them touches fn or the job again, so both may die.
    while (job.done != num_chunks || job.helpers != 0) done_cv_.Wait(mutex_);
    error = job.first_error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace docs
