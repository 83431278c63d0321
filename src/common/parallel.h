#ifndef DOCS_COMMON_PARALLEL_H_
#define DOCS_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace docs {

/// Default chunk grain for ParallelFor/ParallelReduce: the index space is cut
/// into chunks of this many elements. The grain (and therefore the chunk
/// boundaries) depends only on the problem size, never on the thread count —
/// that invariance is what makes chunk-ordered reductions bit-identical for
/// any pool size. 16 keeps per-chunk dispatch overhead (one atomic fetch_add
/// plus one counter increment) negligible against the microseconds of work a
/// chunk of inference/scoring carries.
inline constexpr size_t kParallelGrain = 16;

/// std::thread::hardware_concurrency(), floored at 1 (the standard allows 0
/// when the count is unknowable).
size_t DefaultThreadCount();

/// Resolves a user-facing thread-count knob: 0 means "hardware default",
/// anything else is taken literally. Always >= 1.
size_t EffectiveThreadCount(size_t requested);

/// A fixed-size pool of worker threads executing indexed chunks. The pool is
/// created once and reused across parallel regions (thread creation costs tens
/// of microseconds; the hot loops run every answer submission). Any number of
/// threads may call Run() at once: each call is its own job, which its caller
/// always drains itself while idle workers help whichever job still has
/// unclaimed chunks. A pool constructed with `num_threads` thus applies at
/// most `num_threads` threads to a lone region, and a region never waits for
/// another caller's region to finish.
///
/// Determinism contract: Run(num_chunks, fn) invokes fn(c) exactly once for
/// every c in [0, num_chunks). *Which* thread runs a chunk is scheduling-
/// dependent, but callers that (a) write only to chunk-owned slots, or
/// (b) accumulate into per-chunk partials merged in chunk order afterwards,
/// produce results independent of the schedule, the pool size and whatever
/// other jobs share the pool.
class ThreadPool {
 public:
  /// `num_threads` counts the caller: a pool of 1 spawns no workers and runs
  /// everything inline; a pool of 0 resolves to DefaultThreadCount().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads applied to a lone region, including the caller.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Executes fn(c) for every chunk index c in [0, num_chunks), blocking until
  /// all chunks finished. Chunks are claimed dynamically (an idle thread takes
  /// the next index), so uneven chunk costs balance automatically. Safe to
  /// call from several threads at once; fn must not call Run() on the same
  /// pool.
  ///
  /// If fn throws, the first exception (in completion order) is rethrown from
  /// this Run() — never from another caller's — after every chunk has been
  /// accounted for. A chunk whose fn threw still counts as completed, so the
  /// pool stays usable. Exceptions thrown on worker threads are transported
  /// to the caller instead of terminating the process.
  void Run(size_t num_chunks, const std::function<void(size_t)>& fn)
      DOCS_EXCLUDES(mutex_);

 private:
  /// One Run() call, registered on its caller's stack while it has chunks to
  /// hand out. `done`, `helpers` and `first_error` are guarded by the pool's
  /// mutex_ (a nested type cannot name it in an annotation).
  struct Job {
    Job(const std::function<void(size_t)>& job_fn, size_t chunks)
        : fn(job_fn), num_chunks(chunks) {}
    const std::function<void(size_t)>& fn;
    const size_t num_chunks;
    std::atomic<size_t> next{0};  ///< next unclaimed chunk
    size_t done = 0;              ///< chunks completed and reported
    size_t helpers = 0;           ///< workers currently inside the job
    std::exception_ptr first_error;
  };

  void WorkerLoop() DOCS_EXCLUDES(mutex_);
  /// Claims and runs chunks of `job` until none remain; returns how many
  /// this thread ran (thrown ones included, their error recorded).
  size_t RunChunks(Job& job) DOCS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  /// Registered jobs, oldest first. A job leaves before its caller waits for
  /// the helpers inside it, so no worker can enter a job that has returned.
  std::vector<Job*> jobs_ DOCS_GUARDED_BY(mutex_);
  bool shutdown_ DOCS_GUARDED_BY(mutex_) = false;
};

/// Number of chunks a ParallelFor over `n` elements dispatches. Depends only
/// on `n` and `grain`.
inline size_t NumChunks(size_t n, size_t grain = kParallelGrain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

/// Runs body(i) for every i in [0, n). Within a chunk indices run in
/// ascending order on one thread; distinct chunks may run concurrently.
/// `pool == nullptr` (or a 1-thread pool, or a single chunk) degrades to the
/// plain sequential loop. Bodies that only touch state owned by index i are
/// bit-identical to the sequential loop for every pool size.
template <typename Body>
void ParallelFor(ThreadPool* pool, size_t n, const Body& body,
                 size_t grain = kParallelGrain) {
  const size_t chunks = NumChunks(n, grain);
  if (chunks == 0) return;
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * grain;
    const size_t end = std::min(n, begin + grain);
    for (size_t i = begin; i < end; ++i) body(i);
  };
  if (pool == nullptr || pool->num_threads() <= 1 || chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }
  pool->Run(chunks, run_chunk);
}

/// Deterministic chunked reduction: splits [0, n) into NumChunks(n, grain)
/// chunks, runs chunk_body(begin, end, partial) with a freshly
/// value-initialized Partial per chunk, then folds the partials into `result`
/// with merge(result, partial) in ascending chunk order on the calling
/// thread. Because the chunk boundaries and the merge order depend only on
/// (n, grain), the result is bit-identical for any thread count — including
/// the degenerate sequential execution.
template <typename Partial, typename ChunkBody, typename Merge>
void ParallelReduce(ThreadPool* pool, size_t n, Partial& result,
                    const ChunkBody& chunk_body, const Merge& merge,
                    size_t grain = kParallelGrain) {
  const size_t chunks = NumChunks(n, grain);
  if (chunks == 0) return;
  std::vector<Partial> partials(chunks);
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * grain;
    const size_t end = std::min(n, begin + grain);
    chunk_body(begin, end, partials[c]);
  };
  if (pool == nullptr || pool->num_threads() <= 1 || chunks <= 1) {
    for (size_t c = 0; c < chunks; ++c) run_chunk(c);
  } else {
    pool->Run(chunks, run_chunk);
  }
  for (size_t c = 0; c < chunks; ++c) merge(result, partials[c]);
}

}  // namespace docs

#endif  // DOCS_COMMON_PARALLEL_H_
