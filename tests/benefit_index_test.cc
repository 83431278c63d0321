// The per-worker benefit index's invalidation and accounting contracts
// (DESIGN.md §11, §16). The index is the one memo of a worker's benefit
// scores: a lazily repaired max-heap that a warm RequestTasks reads the
// top-k eligible tasks off in O(k log n). These tests pin how each mutation
// class reaches it: the periodic full re-inference stales every index with
// ONE generation bump, lease expiry stales nothing, an uninvolved worker's
// index repairs from the engine's mutation log (live, or the window a
// snapshot carries), a worker-epoch bump rebuilds, and redundancy-cap churn
// that exhausts the walk's budget falls back to a scan over the index's
// values. They also pin the counters: exact counts of scores computed
// (rebuild n + repairs) and the request-level tally a dashboard reads.
// Every selection is checked against the test-side oracle of
// ranking_oracle.h. scripts/ci.sh runs this binary under DOCS_DEBUG_CHECKS
// (the O(n) heap audit) and under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"
#include "datasets/dataset.h"
#include "ranking_oracle.h"
#include "storage/worker_store.h"

namespace docs::core {
namespace {

using oracle::Inputs;
using oracle::kAllRules;
using oracle::ReferenceScores;
using oracle::ReferenceTopK;
using oracle::RequestTally;

class BenefitIndexTest : public oracle::OracleFixture {};

/// RunFullInference stales every index with a single
/// generation bump: the per-task and per-worker epoch arrays do not move.
/// The next serving pass rebuilds the index once and matches the oracle.
TEST_F(BenefitIndexTest, FullInferenceInvalidatesWithOneGenerationBump) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  DocsSystem system(&kb_->knowledge_base, QuietOptions());
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());

  const size_t w = system.WorkerIndex("w");
  auto step = [&](size_t k) {
    const auto expected =
        ReferenceTopK(system, w, SelectionRule::kBenefit, k);
    const auto selected = system.SelectTasks(w, k);
    EXPECT_EQ(selected, expected);
    return selected;
  };

  // Warm up: select, answer, select (the answer bumped w's worker epoch, so
  // this rebuilds), then a quiet repeat that is served off the fresh heap.
  const auto first = step(2);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_TRUE(system.SubmitAnswer(w, first[0], 0).ok());
  (void)step(2);
  const uint64_t rebuilds_warm =
      system.serving_counters().benefit_index_rebuilds;
  const uint64_t pops_warm = system.serving_counters().benefit_index_pops;
  (void)step(2);
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds, rebuilds_warm);
  EXPECT_GT(system.serving_counters().benefit_index_pops, pops_warm);

  // The invalidation itself: one generation bump, zero epoch movement, and
  // the mutation log resets (nothing to replay across a generation change).
  const uint64_t worker_epoch_before = system.inference().worker_epoch(w);
  const uint64_t generation_before = system.inference().generation();
  const uint64_t invalidations_before =
      system.serving_counters().benefit_index_generation_invalidations;
  system.RunFullInference();
  EXPECT_EQ(system.inference().generation(), generation_before + 1);
  EXPECT_EQ(system.serving_counters().benefit_index_generation_invalidations,
            invalidations_before + 1);
  EXPECT_EQ(system.inference().worker_epoch(w), worker_epoch_before);
  EXPECT_EQ(system.inference().mutation_log_begin(),
            system.inference().mutation_log_end());

  // The stale index is detected by the generation tag alone: exactly one
  // rebuild, still on the oracle, and quiet repeats are warm again.
  const uint64_t rebuilds_before =
      system.serving_counters().benefit_index_rebuilds;
  (void)step(2);
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds,
            rebuilds_before + 1);
  (void)step(2);
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds,
            rebuilds_before + 1);
}

/// Lease expiry invalidates nothing: benefit scores do not depend on
/// leases, so reclaiming abandoned grants leaves every index fresh — the
/// next pass neither rebuilds nor repairs, and the reclaimed tasks simply
/// become selectable again at their unchanged scores.
TEST_F(BenefitIndexTest, LeaseExpiryLeavesEveryIndexFresh) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  DocsSystemOptions options = QuietOptions();
  options.lease_duration = 1;
  options.max_answers_per_task = 1;  // outstanding leases gate eligibility
  DocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());

  // w leases the top two tasks and abandons them; x (same default quality,
  // so the identical ranking) must take the next two.
  const size_t w = system.WorkerIndex("w");
  const size_t x = system.WorkerIndex("x");
  const auto first = system.SelectTasks(w, 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, ReferenceTopK(system, w, SelectionRule::kBenefit, 2));
  const auto other = system.SelectTasks(x, 2);
  ASSERT_EQ(other.size(), 2u);
  EXPECT_NE(other, first);

  // Only w's grants have reached their deadline (clock advanced once since).
  const auto expired = system.ExpireLeases(system.lease_clock());
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].worker, w);
  EXPECT_EQ(expired[1].worker, w);

  // The sweep moved no epochs and no generation: w's next pass is served
  // off the still-fresh heap (no rebuild, no repair) and re-grants exactly
  // the tasks the expiry returned to the pool.
  const uint64_t rebuilds_before =
      system.serving_counters().benefit_index_rebuilds;
  const uint64_t repairs_before =
      system.serving_counters().benefit_index_repairs;
  const uint64_t pops_before = system.serving_counters().benefit_index_pops;
  EXPECT_EQ(system.SelectTasks(w, 2), first);
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds, rebuilds_before);
  EXPECT_EQ(system.serving_counters().benefit_index_repairs, repairs_before);
  EXPECT_GT(system.serving_counters().benefit_index_pops, pops_before);
}

/// The mutation-log repair path: a submission by worker A bumps the epoch of
/// the task it touched and appends it to the engine's mutation log. An
/// uninvolved worker B's index — same worker epoch, same generation —
/// catches up by replaying exactly that log tail (repairs, no rebuild),
/// while A's own next pass rebuilds (her quality moved). A WorkerStore
/// reseed is the other worker-epoch edge: rebuild, not repair. Selections
/// stay on the oracle throughout.
TEST_F(BenefitIndexTest, RetroFanOutRepairsFromTheMutationLog) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  DocsSystem system(&kb_->knowledge_base, QuietOptions());
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());

  const size_t a = system.WorkerIndex("a");
  const size_t b = system.WorkerIndex("b");
  auto step = [&](size_t worker, size_t k) {
    const auto expected =
        ReferenceTopK(system, worker, SelectionRule::kBenefit, k);
    const auto selected = system.SelectTasks(worker, k);
    EXPECT_EQ(selected, expected);
    return selected;
  };

  (void)step(b, 4);  // b's index: built
  const auto granted = step(a, 1);  // a's index: built
  ASSERT_EQ(granted.size(), 1u);
  ASSERT_TRUE(system.SubmitAnswer(a, granted[0], 0).ok());

  // b is uninvolved: her worker epoch did not move, so her index repairs
  // the logged tasks in place instead of rebuilding.
  const uint64_t rebuilds_before =
      system.serving_counters().benefit_index_rebuilds;
  const uint64_t repairs_before =
      system.serving_counters().benefit_index_repairs;
  (void)step(b, 4);
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds, rebuilds_before);
  EXPECT_GT(system.serving_counters().benefit_index_repairs, repairs_before);

  // a answered, so her quality (worker epoch) moved: full rebuild.
  (void)step(a, 4);
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds,
            rebuilds_before + 1);

  // A mid-campaign reseed is the other worker-epoch bump: rebuild too.
  const size_t m = kb_->knowledge_base.num_domains();
  auto store = storage::WorkerStore::InMemory(m);
  storage::WorkerQualityRecord record;
  record.quality.assign(m, 0.85);
  record.weight.assign(m, 3.0);
  ASSERT_TRUE(store.Put("b", record).ok());
  ASSERT_TRUE(system.LoadWorker("b", store).ok());
  const uint64_t rebuilds_mid =
      system.serving_counters().benefit_index_rebuilds;
  (void)step(b, 4);
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds, rebuilds_mid + 1);
}

/// The snapshot path reads the same change feed (DESIGN.md §16): every
/// publish carries the engine's mutation-log window, so an uninvolved
/// worker's index any number of publishes behind repairs the logged tasks
/// instead of rebuilding — and still serves the oracle's ranking.
TEST_F(BenefitIndexTest, SnapshotIndexRepairsAcrossSeveralPublishes) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  DocsSystemOptions options = QuietOptions();
  options.async_inference = true;
  ConcurrentDocsSystem facade(&kb_->knowledge_base, options);
  ASSERT_TRUE(facade.AddTasks(Inputs(dataset)).ok());

  // a and b register on the cold path; b's second request is served off a
  // snapshot, which leaves her index synced to it.
  const auto granted = facade.RequestTasks("a", 3);
  ASSERT_EQ(granted.size(), 3u);
  (void)facade.RequestTasks("b", 4);
  (void)facade.RequestTasks("b", 4);

  // Two publishes land before b returns: one drained answer of a's each.
  const uint64_t epoch_before = facade.async_stats().service.snapshot_epoch;
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(facade.SubmitAnswer("a", granted[i], 0).ok());
    facade.Drain();
  }
  ASSERT_GE(facade.async_stats().service.snapshot_epoch, epoch_before + 2);

  const ServingCounters before = facade.serving_counters();
  const auto selected = facade.RequestTasks("b", 4);
  const ServingCounters after = facade.serving_counters();
  EXPECT_EQ(after.benefit_index_rebuilds, before.benefit_index_rebuilds);
  EXPECT_GT(after.benefit_index_repairs, before.benefit_index_repairs);
  const auto expected = facade.WithLocked([](DocsSystem& system) {
    return ReferenceTopK(system, *system.FindWorker("b"),
                         SelectionRule::kBenefit, 4);
  });
  EXPECT_EQ(selected, expected);
}

/// Budget exhaustion under cap churn: when enough of the heap's top entries
/// are ineligible (leased out under a redundancy cap of one), the frontier
/// walk gives up within its visit budget and the pass falls back to the
/// scan over the index's values — which must still select exactly what the
/// oracle selects. The fallback is observable as a walk past its budget
/// with the index left fresh (no rebuild) and no score computed.
TEST_F(BenefitIndexTest, CapChurnFallsBackToTheScanBitIdentically) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 120, 17);
  DocsSystemOptions options = QuietOptions();
  // Worker-independent ranking: every worker leases from the same global
  // order, so the v-workers below deterministically occupy w's top ranks.
  options.selection_rule = SelectionRule::kUncertainty;
  options.lease_duration = 100;  // nothing expires during the test
  options.max_answers_per_task = 1;
  DocsSystem system(&kb_->knowledge_base, options);
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());

  // No answers are submitted, so a task is capped iff it was granted.
  std::vector<uint8_t> leased(system.tasks().size(), 0);
  auto step = [&](const std::string& id, size_t k) {
    const size_t worker = system.WorkerIndex(id);
    const auto expected =
        ReferenceTopK(system, worker, options.selection_rule, k, &leased);
    const auto selected = system.SelectTasks(worker, k);
    EXPECT_EQ(selected, expected);
    for (size_t task : selected) leased[task] = 1;
    return selected;
  };

  // w warms her index (and leases the global top task); twenty other
  // workers then lease the next 80 ranks. No epoch or generation ever
  // moves: w's index stays fresh throughout.
  const auto top = step("w", 1);
  ASSERT_EQ(top.size(), 1u);
  for (size_t v = 0; v < 20; ++v) {
    ASSERT_EQ(step("v" + std::to_string(v), 4).size(), 4u);
  }

  // w's next request: the 81 best-ranked tasks are all ineligible, which
  // exceeds the k=1 walk budget (64 visits) — the pass falls back to the
  // scan without rebuilding the still-fresh index, and still matches the
  // oracle bit for bit.
  const ServingCounters before = system.serving_counters();
  const auto fallback = step("w", 1);
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_NE(fallback, top);
  const ServingCounters after = system.serving_counters();
  EXPECT_EQ(after.benefit_index_rebuilds, before.benefit_index_rebuilds);
  EXPECT_GT(after.benefit_index_pops - before.benefit_index_pops, 64u);
  EXPECT_EQ(after.benefit_cache_misses, before.benefit_cache_misses);
}

/// The same churn on the snapshot path: the facade serves w's second request
/// from a published snapshot, her index (built on the cold path) is still
/// fresh against it, and the over-budget walk falls back to the scan. The
/// scan reads every eligible score off the index, so the pass computes no
/// score at all — a request HIT — and still matches the oracle.
TEST_F(BenefitIndexTest, SnapshotScanFallbackComputesNoScores) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 120, 17);
  DocsSystemOptions options = QuietOptions();
  options.selection_rule = SelectionRule::kUncertainty;
  options.lease_duration = 100;  // nothing expires during the test
  options.max_answers_per_task = 1;
  ConcurrentDocsSystem facade(&kb_->knowledge_base, options);
  ASSERT_TRUE(facade.AddTasks(Inputs(dataset)).ok());

  // No answers are submitted, so a task is capped iff it was granted.
  std::vector<uint8_t> leased(dataset.tasks.size(), 0);
  auto step = [&](const std::string& id, size_t k) {
    const auto selected = facade.RequestTasks(id, k);
    const auto expected = facade.WithLocked([&](DocsSystem& system) {
      // Leases move no score, so the oracle may rank after the commit.
      return ReferenceTopK(system, *system.FindWorker(id),
                           options.selection_rule, k, &leased);
    });
    EXPECT_EQ(selected, expected);
    for (size_t task : selected) leased[task] = 1;
    return selected;
  };

  // First contacts run on the cold path: w's index is built there, then
  // twenty v-workers lease the 80 ranks after w's top task.
  ASSERT_EQ(step("w", 1).size(), 1u);
  for (size_t v = 0; v < 20; ++v) {
    ASSERT_EQ(step("v" + std::to_string(v), 4).size(), 4u);
  }

  const ServingCounters before = facade.serving_counters();
  ASSERT_EQ(step("w", 1).size(), 1u);
  const ServingCounters after = facade.serving_counters();
  EXPECT_EQ(after.benefit_index_rebuilds, before.benefit_index_rebuilds);
  EXPECT_EQ(after.benefit_index_repairs, before.benefit_index_repairs);
  EXPECT_GT(after.benefit_index_pops - before.benefit_index_pops, 64u);
  EXPECT_EQ(after.benefit_cache_misses, before.benefit_cache_misses);
  EXPECT_EQ(after.benefit_cache_request_hits,
            before.benefit_cache_request_hits + 1);
  EXPECT_EQ(after.benefit_cache_request_misses,
            before.benefit_cache_request_misses);
}


/// A submission by worker A on task t moves exactly one of an uninvolved
/// worker B's scores (t's posterior moved; B's worker epoch did not), while
/// every score of A's own goes stale (her quality moved). Pinned on exact
/// counts of scores computed: B's index repairs the one logged task in
/// place, and A's rebuilds.
TEST_F(BenefitIndexTest, InvalidationIsPreciseForUninvolvedWorkers) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  DocsSystem system(&kb_->knowledge_base, QuietOptions());
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());
  const SelectionRule rule = SelectionRule::kBenefit;

  const size_t a = system.WorkerIndex("a");
  const size_t b = system.WorkerIndex("b");
  const auto granted = system.SelectTasks(a, 1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(system.SelectTasks(b, 4), ReferenceTopK(system, b, rule, 4));
  // Both indexes built cold: 60 scores each.
  EXPECT_EQ(system.serving_counters().benefit_cache_misses, 120u);

  // ScoreAllTasks syncs b's index off the mutation log: one repair, one
  // score, and every other value read off the index.
  ASSERT_TRUE(system.SubmitAnswer(a, granted[0], 0).ok());
  const uint64_t rebuilds = system.serving_counters().benefit_index_rebuilds;
  const uint64_t repairs = system.serving_counters().benefit_index_repairs;
  uint64_t misses = system.serving_counters().benefit_cache_misses;
  EXPECT_EQ(system.ScoreAllTasks(b, /*cold=*/false),
            ReferenceScores(system, b, rule));
  EXPECT_EQ(system.serving_counters().benefit_cache_misses - misses, 1u);
  EXPECT_EQ(system.serving_counters().benefit_index_repairs, repairs + 1);

  // b's next request finds the index caught up: no rebuild, no repair, no
  // score.
  misses = system.serving_counters().benefit_cache_misses;
  EXPECT_EQ(system.SelectTasks(b, 4), ReferenceTopK(system, b, rule, 4));
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds, rebuilds);
  EXPECT_EQ(system.serving_counters().benefit_index_repairs, repairs + 1);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses, misses);

  // a's own index is fully stale: the rebuild scores her 59 unanswered
  // tasks and the pass scores her one answered task cold — 60 in all.
  EXPECT_EQ(system.ScoreAllTasks(a, /*cold=*/false),
            ReferenceScores(system, a, rule));
  EXPECT_EQ(system.serving_counters().benefit_cache_misses - misses, 60u);
  EXPECT_EQ(system.serving_counters().benefit_index_rebuilds, rebuilds + 1);
}

/// All four rules route through the index: on a quiet system a repeat
/// ScoreAllTasks pass computes nothing, and repeat requests are served off
/// the fresh heap — no rebuild, no score, one request hit each.
TEST_F(BenefitIndexTest, WarmRequestsKeepHittingUnderEveryRule) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 40, 13);
  for (SelectionRule rule : kAllRules) {
    SCOPED_TRACE(static_cast<int>(rule));
    DocsSystemOptions options = QuietOptions();
    options.selection_rule = rule;
    DocsSystem system(&kb_->knowledge_base, options);
    ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());
    const size_t w = system.WorkerIndex("w");

    const auto reference = ReferenceScores(system, w, rule);
    EXPECT_EQ(system.ScoreAllTasks(w, /*cold=*/false), reference);
    EXPECT_EQ(system.serving_counters().benefit_cache_misses, 40u);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(system.ScoreAllTasks(w, /*cold=*/false), reference);
    }
    EXPECT_EQ(system.serving_counters().benefit_cache_misses, 40u);

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

/// benefit_cache_misses counts individual scores computed; the request
/// counters tally whole serving passes (a pass that computed even one score
/// is a request miss). Dashboards want request_hits / (request_hits +
/// request_misses).
TEST_F(BenefitIndexTest, RequestCountersTallyServingPassesNotScores) {
  const auto dataset = datasets::MakeQaDataset(*kb_, 60, 11);
  DocsSystem system(&kb_->knowledge_base, QuietOptions());
  ASSERT_TRUE(system.AddTasks(Inputs(dataset)).ok());

  // Cold pass: the index rebuild scores all 60 tasks — ONE request miss.
  const size_t b = system.WorkerIndex("b");
  (void)system.SelectTasks(b, 4);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses, 60u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_misses, 1u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_hits, 0u);

  // Quiet repeat: served off the fresh heap without computing a score —
  // ONE request hit.
  (void)system.SelectTasks(b, 4);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses, 60u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_hits, 1u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_misses, 1u);

  // Another worker's answer stales one of b's scores: her next pass
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
  const uint64_t misses = system.serving_counters().benefit_cache_misses;
  (void)system.SelectTasks(b, 4);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses - misses, 1u);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_misses,
            request_misses + 1);
  EXPECT_EQ(system.serving_counters().benefit_cache_request_hits, request_hits);

  // ScoreAllTasks is not a serving pass: it reads b's caught-up index
  // (no score computed) and the request tally does not move.
  const uint64_t tally = RequestTally(system);
  (void)system.ScoreAllTasks(b, /*cold=*/false);
  EXPECT_EQ(system.serving_counters().benefit_cache_misses - misses, 1u);
  EXPECT_EQ(RequestTally(system), tally);
}

/// A pass that finds no eligible task serves nothing and must not move the
/// request tally, whichever route — index walk or scan — ran it. Here every
/// task is capped by an outstanding lease.
TEST_F(BenefitIndexTest, RequestCountersIgnorePassesThatServeNothing) {
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
