// The epoch-tagged benefit cache's invalidation and accounting contracts
// (DESIGN.md §11). A (worker, task) score is served from the cache until the
// task's epoch, the worker's epoch or the inference generation moves; these
// tests pin exactly which entries a mutation stales, on ScoreAllTasks row
// counts and on the request-level tally a dashboard reads. Every selection
// is checked against the test-side oracle of ranking_oracle.h.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/docs_system.h"
#include "datasets/dataset.h"
#include "ranking_oracle.h"

namespace docs::core {
namespace {

using oracle::Inputs;
using oracle::kAllRules;
using oracle::ReferenceScores;
using oracle::ReferenceTopK;
using oracle::RequestTally;

class BenefitCacheTest : public oracle::OracleFixture {};

/// A submission by worker A on task t stales exactly one entry of an
/// uninvolved worker B's cache row (t's epoch moved; B's worker epoch did
/// not), while every entry of A's own row goes stale (her quality moved).
/// Pinned on ScoreAllTasks row counts, then on B's index: it repairs the one
/// logged task in place instead of rebuilding.
TEST_F(BenefitCacheTest, InvalidationIsPreciseForUninvolvedWorkers) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  DocsSystem system(&kb_->knowledge_base, QuietOptions());
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());
  const SelectionRule rule = SelectionRule::kBenefit;

  const size_t a = system.WorkerIndex("a");
  const size_t b = system.WorkerIndex("b");
  const auto granted = system.SelectTasks(a, 1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(system.SelectTasks(b, 4), ReferenceTopK(system, b, rule, 4));
  // Both rows scored cold.
  EXPECT_EQ(system.serving_counters().benefit_cache_misses, 120u);

  ASSERT_TRUE(system.SubmitAnswer(a, granted[0], 0).ok());
  uint64_t hits = system.serving_counters().benefit_cache_hits;
  uint64_t misses = system.serving_counters().benefit_cache_misses;
  EXPECT_EQ(system.ScoreAllTasks(b, /*bypass_cache=*/false),
            ReferenceScores(system, b, rule));
  EXPECT_EQ(system.serving_counters().benefit_cache_misses - misses, 1u);
  EXPECT_EQ(system.serving_counters().benefit_cache_hits - hits, 59u);

  // b's index catches up off the mutation log: one repair, no rebuild, and
  // the repaired entry was already refreshed by the pass above.
  const uint64_t rebuilds = system.serving_counters().benefit_index_rebuilds;
  const uint64_t repairs = system.serving_counters().benefit_index_repairs;
  misses = system.serving_counters().benefit_cache_misses;
  EXPECT_EQ(system.SelectTasks(b, 4), ReferenceTopK(system, b, rule, 4));
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds, rebuilds);
  EXPECT_EQ(system.serving_counters().benefit_index_repairs, repairs + 1);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses, misses);

  // a's own row is fully stale: all 60 entries rescore.
  hits = system.serving_counters().benefit_cache_hits;
  EXPECT_EQ(system.ScoreAllTasks(a, /*bypass_cache=*/false),
            ReferenceScores(system, a, rule));
  EXPECT_EQ(system.serving_counters().benefit_cache_misses - misses, 60u);
  EXPECT_EQ(system.serving_counters().benefit_cache_hits, hits);
}

/// All four rules route through the cache and the index: on a quiet system
/// a repeat ScoreAllTasks pass is served entirely from the row, and repeat
/// requests are served off the fresh heap — no rebuild, no recompute, one
/// request hit each.
TEST_F(BenefitCacheTest, WarmRequestsKeepHittingUnderEveryRule) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  for (SelectionRule rule : kAllRules) {
    SCOPED_TRACE(static_cast<int>(rule));
    DocsSystemOptions options = QuietOptions();
    options.selection_rule = rule;
    DocsSystem system(&kb_->knowledge_base, options);
    ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());
    const size_t w = system.WorkerIndex("w");

    const auto reference = ReferenceScores(system, w, rule);
    EXPECT_EQ(system.ScoreAllTasks(w, /*bypass_cache=*/false), reference);
    EXPECT_EQ(system.serving_counters().benefit_cache_misses, 40u);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(system.ScoreAllTasks(w, /*bypass_cache=*/false), reference);
    }
    EXPECT_EQ(system.serving_counters().benefit_cache_misses, 40u);
    EXPECT_EQ(system.serving_counters().benefit_cache_hits, 3u * 40u);

    const auto first = system.SelectTasks(w, 5);
    EXPECT_EQ(first, ReferenceTopK(system, w, rule, 5));
    const uint64_t rebuilds = system.serving_counters().benefit_index_rebuilds;
    const uint64_t request_hits =
        system.serving_counters().benefit_cache_request_hits;
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(system.SelectTasks(w, 5), first);
    }
    EXPECT_EQ(system.serving_counters().benefit_index_rebuilds, rebuilds);
    EXPECT_EQ(system.serving_counters().benefit_cache_misses, 40u);
    EXPECT_EQ(system.serving_counters().benefit_cache_request_hits,
              request_hits + 3);
  }
}

/// Row-level counters tally individual score lookups; request-level counters
/// tally whole serving passes (a pass with even one recompute is a request
/// miss). Dashboards want request_hits / (request_hits + request_misses).
TEST_F(BenefitCacheTest, RequestCountersTallyServingPassesNotRowLookups) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  DocsSystem system(&kb_->knowledge_base, QuietOptions());
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());

  // Cold pass: the index rebuild scores all 60 tasks — ONE request miss.
  const size_t b = system.WorkerIndex("b");
  (void)system.SelectTasks(b, 4);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses, 60u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_misses, 1u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_hits, 0u);

  // Quiet repeat: served off the fresh heap without a single row lookup —
  // ONE request hit.
  (void)system.SelectTasks(b, 4);
  EXPECT_EQ(system.serving_counters().benefit_cache_hits, 0u);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses, 60u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_hits, 1u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_misses, 1u);

  // Another worker's answer stales one of b's entries: her next pass
  // repairs and rescores that one task, so it is a request MISS although
  // the rest of the heap stayed warm.
  const size_t a = system.WorkerIndex("a");
  const auto granted = system.SelectTasks(a, 1);
  ASSERT_EQ(granted.size(), 1u);
  ASSERT_TRUE(system.SubmitAnswer(a, granted[0], 0).ok());
  const uint64_t request_hits =
      system.serving_counters().benefit_cache_request_hits;
  const uint64_t request_misses =
      system.serving_counters().benefit_cache_request_misses;
  const uint64_t row_misses = system.serving_counters().benefit_cache_misses;
  (void)system.SelectTasks(b, 4);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses - row_misses, 1u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_misses,
            request_misses + 1);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_hits, request_hits);

  // ScoreAllTasks is not a serving pass: row counters move (it walks every
  // entry) but the request tally does not.
  const uint64_t tally = RequestTally(system);
  const uint64_t row_hits = system.serving_counters().benefit_cache_hits;
  (void)system.ScoreAllTasks(b, /*bypass_cache=*/false);
  EXPECT_EQ(system.serving_counters().benefit_cache_hits - row_hits, 60u);
  EXPECT_EQ(RequestTally(system), tally);
}

/// A pass that finds no eligible task serves nothing and must not move the
/// request tally, whichever route — index walk or scan — ran it. Here every
/// task is capped by an outstanding lease.
TEST_F(BenefitCacheTest, RequestCountersIgnorePassesThatServeNothing) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  DocsSystemOptions options = QuietOptions();
  options.lease_duration = 100;  // nothing expires during the test
  options.max_answers_per_task = 1;
  DocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());

  const size_t a = system.WorkerIndex("a");
  ASSERT_EQ(system.SelectTasks(a, 40).size(), 40u);  // every task leased
  const uint64_t tally = RequestTally(system);
  EXPECT_EQ(tally, 1u);
  const size_t b = system.WorkerIndex("b");
  EXPECT_TRUE(system.SelectTasks(b, 4).empty());  // cold index, walk empty
  EXPECT_TRUE(system.SelectTasks(b, 4).empty());  // warm index, walk empty
  EXPECT_TRUE(system.SelectTasks(a, 4).empty());
  EXPECT_EQ(RequestTally(system), tally);
}

}  // namespace
}  // namespace docs::core
