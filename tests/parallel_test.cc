// Unit and stress tests for the deterministic thread pool
// (src/common/parallel.h): chunk math, full index coverage, thread-count
// invariance of chunk-ordered reductions, reuse across many regions, and
// several callers sharing one pool.
// scripts/ci.sh also runs this binary under TSan (DOCS_SANITIZE=thread).

#include "common/parallel.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace docs {
namespace {

TEST(ChunkMathTest, NumChunksCoversIndexSpace) {
  EXPECT_EQ(NumChunks(0), 0u);
  EXPECT_EQ(NumChunks(1), 1u);
  EXPECT_EQ(NumChunks(kParallelGrain), 1u);
  EXPECT_EQ(NumChunks(kParallelGrain + 1), 2u);
  EXPECT_EQ(NumChunks(10, 3), 4u);
  // grain 0 is treated as 1 rather than dividing by zero.
  EXPECT_EQ(NumChunks(5, 0), 5u);
}

TEST(ThreadPoolTest, ReportsRequestedThreadCount) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  ThreadPool sequential(1);
  EXPECT_EQ(sequential.num_threads(), 1u);
  ThreadPool hardware(0);
  EXPECT_GE(hardware.num_threads(), 1u);
}

TEST(ThreadPoolTest, RunExecutesEveryChunkExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    const size_t num_chunks = 157;
    std::vector<std::atomic<uint32_t>> hits(num_chunks);
    for (auto& h : hits) h.store(0);
    pool.Run(num_chunks, [&](size_t c) { hits[c].fetch_add(1); });
    for (size_t c = 0; c < num_chunks; ++c) {
      EXPECT_EQ(hits[c].load(), 1u) << "chunk " << c << ", " << threads
                                    << " threads";
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions) {
  ThreadPool pool(4);
  for (size_t round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    const size_t chunks = 1 + round % 13;
    pool.Run(chunks, [&](size_t c) { sum.fetch_add(c + 1); });
    EXPECT_EQ(sum.load(), chunks * (chunks + 1) / 2) << "round " << round;
  }
}

TEST(ParallelForTest, VisitsEveryIndexOnceForAnyThreadCount) {
  const size_t n = 1000;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<uint32_t>> hits(n);
    for (auto& h : hits) h.store(0);
    ParallelFor(&pool, n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    }
  }
}

TEST(ParallelForTest, NullPoolRunsSequentially) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 40, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 40u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, SlotWritesMatchSequentialBaseline) {
  const size_t n = 513;  // deliberately not a multiple of the grain
  std::vector<double> expected(n);
  for (size_t i = 0; i < n; ++i) {
    expected[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<double> got(n, 0.0);
    ParallelFor(&pool, n,
                [&](size_t i) { got[i] = 1.0 / (1.0 + static_cast<double>(i)); });
    EXPECT_EQ(got, expected);
  }
}

// The floating-point core of the determinism contract: a chunk-ordered
// reduction over values whose sum is order-sensitive in double precision is
// bit-identical for every thread count (and for the sequential execution).
TEST(ParallelReduceTest, ChunkOrderedSumIsThreadCountInvariant) {
  const size_t n = 4096;
  std::vector<double> values(n);
  // Wildly varying magnitudes make double addition order-sensitive.
  for (size_t i = 0; i < n; ++i) {
    values[i] = (i % 2 == 0 ? 1.0 : -1.0) *
                std::pow(10.0, static_cast<double>(i % 17) - 8.0) *
                (1.0 + static_cast<double>(i) * 1e-5);
  }
  auto chunk_sum = [&](size_t begin, size_t end, double& partial) {
    for (size_t i = begin; i < end; ++i) partial += values[i];
  };
  auto merge = [](double& acc, const double& partial) { acc += partial; };

  double sequential = 0.0;
  ParallelReduce(nullptr, n, sequential, chunk_sum, merge);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{8}}) {
    ThreadPool pool(threads);
    double parallel = 0.0;
    ParallelReduce(&pool, n, parallel, chunk_sum, merge);
    // Bitwise equality, not EXPECT_DOUBLE_EQ: the whole point is that the
    // reduction tree does not depend on the thread count.
    EXPECT_EQ(parallel, sequential) << threads << " threads";
  }
}

TEST(ParallelReduceTest, VectorPartialsMergeInChunkOrder) {
  const size_t n = 200;
  struct Partial {
    std::vector<size_t> seen;
  };
  ThreadPool pool(4);
  Partial result;
  ParallelReduce(
      &pool, n, result,
      [](size_t begin, size_t end, Partial& p) {
        for (size_t i = begin; i < end; ++i) p.seen.push_back(i);
      },
      [](Partial& acc, const Partial& p) {
        acc.seen.insert(acc.seen.end(), p.seen.begin(), p.seen.end());
      });
  // Chunk-ordered merging of in-order chunks reconstructs 0..n-1 exactly.
  ASSERT_EQ(result.seen.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(result.seen[i], i);
}

TEST(ThreadPoolTest, StressManySmallRegions) {
  ThreadPool pool(8);
  std::atomic<uint64_t> total{0};
  for (size_t round = 0; round < 500; ++round) {
    pool.Run(16, [&](size_t c) { total.fetch_add(c); });
  }
  EXPECT_EQ(total.load(), 500ull * (15 * 16 / 2));
}

// Stress for stragglers: with far more threads than chunks, most workers
// wake up, find every chunk already claimed, and run nothing. A worker may
// only ever run a chunk of a job that is still registered, through that
// job's own body; one that ran a chunk of a finished region through its
// (destroyed) stack lambda would show here as a wrong value, and as a
// use-after-free under ASan/TSan (scripts/ci.sh runs this binary under
// both).
TEST(ThreadPoolTest, StressBackToBackTinyRegionsWithDistinctBodies) {
  ThreadPool pool(8);
  for (size_t round = 0; round < 2000; ++round) {
    const size_t chunks = 2 + round % 3;
    std::vector<uint64_t> slots(chunks, 0);
    const uint64_t stamp = round * 1000003ull + 1;
    pool.Run(chunks, [&slots, stamp](size_t c) { slots[c] = stamp + c; });
    for (size_t c = 0; c < chunks; ++c) {
      ASSERT_EQ(slots[c], stamp + c) << "round " << round << " chunk " << c;
    }
  }
}

TEST(ThreadPoolTest, RethrowsFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  // Throwing chunks may land on worker threads or the caller; either way the
  // exception must surface from Run() instead of terminating the process,
  // and every non-throwing chunk still runs exactly once.
  std::atomic<size_t> ran{0};
  EXPECT_THROW(pool.Run(64,
                        [&](size_t c) {
                          if (c % 7 == 3) throw std::runtime_error("chunk");
                          ran.fetch_add(1);
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 55u);  // 9 of the 64 chunks have c % 7 == 3
  // The failed region reset the pool state cleanly: later regions work.
  std::atomic<uint64_t> sum{0};
  pool.Run(32, [&](size_t c) { sum.fetch_add(c); });
  EXPECT_EQ(sum.load(), 32ull * 31 / 2);
}

TEST(ThreadPoolTest, InlinePathPropagatesExceptions) {
  ThreadPool pool(1);  // no workers: chunks run inline on the caller
  EXPECT_THROW(pool.Run(4, [](size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<uint64_t> sum{0};
  pool.Run(4, [&](size_t c) { sum.fetch_add(c); });
  EXPECT_EQ(sum.load(), 6u);
}

// Several callers share one pool, each running its own bodies: every chunk
// of every region runs exactly once, and each caller's slot writes and
// chunk-ordered sums equal its serial run bitwise.
TEST(ThreadPoolTest, ConcurrentCallersMatchTheirSerialRuns) {
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 150;
  constexpr size_t kChunks = 37;
  auto value = [](size_t caller, size_t round, size_t c) {
    return std::sin(static_cast<double>(caller * 7919 + round * 104729 + c)) *
           std::pow(10.0, static_cast<double>(c % 11) - 5.0);
  };
  ThreadPool pool(4);
  std::vector<std::string> failures(kCallers);
  std::vector<std::thread> callers;
  for (size_t caller = 0; caller < kCallers; ++caller) {
    callers.emplace_back([&, caller] {
      for (size_t round = 0; round < kRounds && failures[caller].empty();
           ++round) {
        std::vector<double> serial(kChunks);
        for (size_t c = 0; c < kChunks; ++c) {
          serial[c] = value(caller, round, c);
        }
        std::vector<double> got(kChunks, 0.0);
        std::vector<std::atomic<uint32_t>> hits(kChunks);
        for (auto& h : hits) h.store(0);
        pool.Run(kChunks, [&](size_t c) {
          hits[c].fetch_add(1);
          got[c] = value(caller, round, c);
        });
        double serial_sum = 0.0;
        ParallelReduce(
            nullptr, kChunks * kParallelGrain, serial_sum,
            [&](size_t begin, size_t end, double& partial) {
              for (size_t i = begin; i < end; ++i) {
                partial += value(caller, round, i);
              }
            },
            [](double& acc, const double& partial) { acc += partial; });
        double pooled_sum = 0.0;
        ParallelReduce(
            &pool, kChunks * kParallelGrain, pooled_sum,
            [&](size_t begin, size_t end, double& partial) {
              for (size_t i = begin; i < end; ++i) {
                partial += value(caller, round, i);
              }
            },
            [](double& acc, const double& partial) { acc += partial; });
        for (size_t c = 0; c < kChunks; ++c) {
          if (hits[c].load() != 1) {
            failures[caller] = "chunk ran " + std::to_string(hits[c].load()) +
                               " times";
          }
        }
        // Exact equality, not approximate.
        if (got != serial) failures[caller] = "slot output differs";
        if (pooled_sum != serial_sum) failures[caller] = "sum differs";
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t caller = 0; caller < kCallers; ++caller) {
    EXPECT_EQ(failures[caller], "") << "caller " << caller;
  }
}

// A caller parked inside one of its own chunks must not hold up another
// caller's region: the second caller drains its own job even while every
// worker is parked in the first one.
TEST(ThreadPoolTest, ParkedCallerDoesNotBlockAnotherCaller) {
  ThreadPool pool(2);
  std::atomic<size_t> parked{0};
  std::atomic<bool> release{false};
  std::thread blocker([&] {
    pool.Run(4, [&](size_t) {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (parked.load() == 0) std::this_thread::yield();
  std::vector<size_t> slots(64, 0);
  pool.Run(slots.size(), [&](size_t c) { slots[c] = c + 1; });
  for (size_t c = 0; c < slots.size(); ++c) EXPECT_EQ(slots[c], c + 1);
  release.store(true);
  blocker.join();
  EXPECT_EQ(parked.load(), 4u);
}

// An exception thrown by one caller's body surfaces from that caller's Run()
// only, even when a worker helping both jobs is the thread that caught it.
TEST(ThreadPoolTest, ExceptionSurfacesOnlyFromItsOwnCaller) {
  constexpr size_t kRounds = 300;
  ThreadPool pool(4);
  std::atomic<size_t> thrower_caught{0};
  std::atomic<size_t> clean_caught{0};
  std::atomic<size_t> clean_bad_sums{0};
  std::thread thrower([&] {
    for (size_t round = 0; round < kRounds; ++round) {
      try {
        pool.Run(32, [](size_t c) {
          if (c % 5 == 2) throw std::runtime_error("thrower");
        });
      } catch (const std::runtime_error&) {
        thrower_caught.fetch_add(1);
      }
    }
  });
  std::thread clean([&] {
    for (size_t round = 0; round < kRounds; ++round) {
      std::atomic<uint64_t> sum{0};
      try {
        pool.Run(32, [&](size_t c) { sum.fetch_add(c); });
      } catch (...) {
        clean_caught.fetch_add(1);
      }
      if (sum.load() != 32ull * 31 / 2) clean_bad_sums.fetch_add(1);
    }
  });
  thrower.join();
  clean.join();
  EXPECT_EQ(thrower_caught.load(), kRounds);
  EXPECT_EQ(clean_caught.load(), 0u);
  EXPECT_EQ(clean_bad_sums.load(), 0u);
}

}  // namespace
}  // namespace docs
