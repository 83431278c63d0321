#ifndef DOCS_COMMON_SYNC_H_
#define DOCS_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace docs {

/// Annotated synchronization primitives (DESIGN.md §14).
///
/// Thin, zero-overhead wrappers over the std primitives that carry the Clang
/// Thread Safety Analysis capability attributes from
/// common/thread_annotations.h. All locking in this repository goes through
/// these types — scripts/lint.py rejects raw std::mutex / std::shared_mutex /
/// std::lock_guard / std::unique_lock / std::condition_variable anywhere
/// outside this file — so every GUARDED_BY / REQUIRES contract in the
/// serving core is machine-checked whenever the tree is built with
/// -DDOCS_THREAD_SAFETY=ON under clang.
///
/// Naming follows the capability model rather than the std API (Lock, not
/// lock) so a call site reads as what the analysis sees.

/// Tag selecting the non-blocking MutexLock constructor.
struct TryToLockT {
  explicit TryToLockT() = default;
};
inline constexpr TryToLockT kTryToLock{};

/// Exclusive mutex. Non-recursive, non-movable (a capability is an identity:
/// annotations name the object, so it cannot change address).
class DOCS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DOCS_ACQUIRE() { mu_.lock(); }
  void Unlock() DOCS_RELEASE() { mu_.unlock(); }
  /// True => the caller now holds the mutex. The analysis tracks a branch on
  /// the result: `if (mu.TryLock()) { ...guarded access...; mu.Unlock(); }`.
  bool TryLock() DOCS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Declares (to the analysis only — no runtime effect) that the calling
  /// thread already holds this mutex through some path the analysis cannot
  /// see. Use sparingly; prefer DOCS_REQUIRES on the function.
  void AssertHeld() const DOCS_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Reader/writer mutex: exclusive for mutators, shared for concurrent
/// readers (the facade's state lock).
class DOCS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() DOCS_ACQUIRE() { mu_.lock(); }
  void Unlock() DOCS_RELEASE() { mu_.unlock(); }
  bool TryLock() DOCS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void LockShared() DOCS_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() DOCS_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() DOCS_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

  void AssertHeld() const DOCS_ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const DOCS_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over a Mutex (std::lock_guard replacement). The
/// kTryToLock overload never blocks; check owns_lock() before touching
/// guarded state (the analysis checks the branch).
class DOCS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DOCS_ACQUIRE(mu) : mu_(mu), owned_(true) {
    mu_->Lock();
  }
  MutexLock(Mutex* mu, TryToLockT) DOCS_TRY_ACQUIRE(true, mu)
      : mu_(mu), owned_(mu->TryLock()) {}
  ~MutexLock() DOCS_RELEASE() {
    if (owned_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  bool owns_lock() const { return owned_; }

 private:
  Mutex* mu_;
  bool owned_;
};

/// RAII exclusive lock over a SharedMutex (the facade's mutator paths).
class DOCS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) DOCS_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() DOCS_RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared lock over a SharedMutex (read-only inspection of the facade).
class DOCS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) DOCS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() DOCS_RELEASE_GENERIC() { mu_->UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable bound to docs::Mutex. Wait() requires the mutex held
/// and reacquires it before returning, exactly like std::condition_variable
/// — but the REQUIRES annotation makes the analysis enforce it, and forces
/// wait predicates into explicit `while (!pred) cv.Wait(mu);` loops in the
/// annotated caller where the guarded reads are visible to the analysis
/// (predicate lambdas are analyzed as separate, lock-free functions and
/// would defeat the check).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before returning.
  /// Spurious wakeups happen; always re-check the predicate in a loop.
  void Wait(Mutex& mu) DOCS_REQUIRES(mu) {
    std::unique_lock<std::mutex> reacquire(mu.mu_, std::adopt_lock);
    cv_.wait(reacquire);
    // The caller's scope (MutexLock or explicit Lock) still owns the mutex;
    // release() keeps the RAII adapter from double-unlocking it.
    reacquire.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace docs

#endif  // DOCS_COMMON_SYNC_H_
