// Lockstep oracle for OTA ranking (DESIGN.md §11, §16).
//
// Every serving path must match the test-side oracle of ranking_oracle.h
// BITWISE: the exclusive DocsSystem::SelectTasks, the sync facade (snapshot
// serving at staleness 0), the drained async facade, and gateways at 1/2/4
// reactors. The campaigns hit every mutation class the index must survive:
// answers with the §4.2 retro fan-out, abandoned grants reclaimed by
// ExpireLeases, the periodic full re-inference (one generation bump), and
// mid-campaign WorkerStore reseeds. Every comparison is exact (operator== on
// doubles). The index's own invalidation and accounting contracts are pinned
// in benefit_index_test. scripts/ci.sh runs this binary under
// DOCS_DEBUG_CHECKS (the O(n) heap audit) and under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "client/crowd_client.h"
#include "common/rng.h"
#include "core/concurrent_docs_system.h"
#include "core/docs_system.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "ranking_oracle.h"
#include "server/crowd_gateway.h"
#include "storage/worker_store.h"

namespace docs::core {
namespace {

using oracle::Inputs;
using oracle::kAllRules;
using oracle::ReferenceScores;
using oracle::ReferenceTopK;

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

std::vector<std::tuple<size_t, size_t, uint64_t>> Flatten(
    const std::vector<ExpiredLease>& leases) {
  std::vector<std::tuple<size_t, size_t, uint64_t>> out;
  out.reserve(leases.size());
  for (const auto& lease : leases) {
    out.emplace_back(lease.worker, lease.task, lease.deadline);
  }
  return out;
}

/// True once `worker` is served by OTA: seeded from the store, or every
/// golden task answered.
bool PastGolden(const DocsSystem& system, size_t worker, bool seeded) {
  if (seeded) return true;
  for (size_t task : system.golden_tasks()) {
    if (!system.inference().HasAnswered(worker, task)) return false;
  }
  return true;
}

class RankingOracleTest : public oracle::OracleFixture {};

/// The in-process lockstep: a bare DocsSystem (exclusive path), a sync
/// facade and a drained async facade (both on the snapshot path) serve
/// one scripted campaign, and every post-golden selection must equal the
/// oracle's. The script submits answers shared across workers (retro
/// fan-out), abandons grants for ExpireLeases to reclaim, re-infers every
/// 25 answers, and reseeds an active worker plus a new veteran mid-way.
TEST_F(RankingOracleTest, ServingPathsMatchTheReferenceAcrossRulesAndThreads) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto truths = dataset.Truths();
  const auto inputs = Inputs(dataset);

  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 8;
  const auto personas = crowd::MakeWorkerPool(
      kb_->knowledge_base.num_domains(), dataset.label_to_domain, pool_options,
      77);

  const size_t m = kb_->knowledge_base.num_domains();
  auto store = storage::WorkerStore::InMemory(m);
  storage::WorkerQualityRecord record;
  record.quality.assign(m, 0.85);
  record.weight.assign(m, 3.0);
  ASSERT_TRUE(store.Put("veteran", record).ok());
  ASSERT_TRUE(store.Put("vet2", record).ok());

  for (SelectionRule rule : kAllRules) {
    for (size_t threads : kThreadSweep) {
      SCOPED_TRACE("rule " + std::to_string(static_cast<int>(rule)) + ", " +
                   std::to_string(threads) + " threads");
      DocsSystemOptions options;
      options.golden_count = 5;
      options.reinfer_every = 25;  // several O(1) invalidations mid-campaign
      options.lease_duration = 3;
      options.selection_rule = rule;
      options.num_threads = threads;
      DocsSystemOptions async_options = options;
      async_options.async_inference = true;

      DocsSystem system(&kb_->knowledge_base, options);
      ConcurrentDocsSystem sync_facade(&kb_->knowledge_base, options);
      ConcurrentDocsSystem async_facade(&kb_->knowledge_base, async_options);
      ASSERT_TRUE(system.AddTasks(inputs, &truths).ok());
      ASSERT_TRUE(system.LoadWorker("veteran", store).ok());
      for (ConcurrentDocsSystem* facade : {&sync_facade, &async_facade}) {
        ASSERT_TRUE(facade->AddTasks(inputs, &truths).ok());
        ASSERT_TRUE(facade->LoadWorker("veteran", store).ok());
      }

      std::set<std::string> seeded = {"veteran"};
      std::vector<std::string> ids = {"w0", "w1", "w2",      "w3",
                                      "w4", "w5", "veteran"};
      Rng rng(61);  // one stream serves every system: selections are
                    // asserted equal before any answer is generated
      size_t oracle_checks = 0;
      for (size_t round = 0; round < 30; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        if (round == 15) {
          // Mid-campaign reseeds: an active worker's quality is replaced
          // (worker-epoch bump -> index rebuild), and a new veteran joins
          // past the golden phase.
          ASSERT_TRUE(system.LoadWorker("veteran", store).ok());
          ASSERT_TRUE(system.LoadWorker("vet2", store).ok());
          for (ConcurrentDocsSystem* facade : {&sync_facade, &async_facade}) {
            ASSERT_TRUE(facade->LoadWorker("veteran", store).ok());
            ASSERT_TRUE(facade->LoadWorker("vet2", store).ok());
          }
          seeded.insert("vet2");
          ids.push_back("vet2");
        }
        const std::string& id = ids[round % ids.size()];
        const size_t w = system.WorkerIndex(id);

        const bool ota = PastGolden(system, w, seeded.count(id) > 0);
        const auto expected =
            ota ? ReferenceTopK(system, w, rule, 4) : std::vector<size_t>{};
        const auto selected = system.SelectTasks(w, 4);
        if (ota) {
          ASSERT_EQ(selected, expected);
          ++oracle_checks;
        }
        ASSERT_EQ(sync_facade.RequestTasks(id, 4), selected);
        // Drained-state equality, not mid-flight: the async facade may
        // serve stale between publishes.
        async_facade.Drain();
        ASSERT_EQ(async_facade.RequestTasks(id, 4), selected);

        if (round % 5 == 0) {
          // Full-score probe: the index-served pass and the cold pass
          // both equal the reference scores bit for bit.
          const auto reference = ReferenceScores(system, w, rule);
          EXPECT_EQ(system.ScoreAllTasks(w, /*cold=*/false), reference);
          EXPECT_EQ(system.ScoreAllTasks(w, /*cold=*/true), reference);
        }

        for (size_t s = 0; s < selected.size(); ++s) {
          // Every third round the worker abandons the last granted task, so
          // ExpireLeases below has real work to reclaim.
          if (round % 3 == 2 && s + 1 == selected.size()) continue;
          const size_t task = selected[s];
          const size_t choice = crowd::GenerateAnswer(
              personas[round % personas.size()],
              dataset.tasks[task].true_domain, dataset.tasks[task].truth,
              dataset.tasks[task].num_choices(), rng);
          ASSERT_TRUE(system.SubmitAnswer(w, task, choice).ok());
          for (ConcurrentDocsSystem* facade : {&sync_facade, &async_facade}) {
            ASSERT_TRUE(facade->SubmitAnswer(id, task, choice).ok());
          }
        }

        if (round == 10 || round == 20) {
          const auto swept = Flatten(system.ExpireLeases(system.lease_clock()));
          for (ConcurrentDocsSystem* facade : {&sync_facade, &async_facade}) {
            EXPECT_EQ(Flatten(facade->ExpireLeases(facade->lease_clock())),
                      swept);
          }
        }
      }
      EXPECT_GE(oracle_checks, 10u);

      const auto choices = system.InferredChoices();
      EXPECT_EQ(sync_facade.InferredChoices(), choices);
      EXPECT_EQ(async_facade.InferredChoices(), choices);
      for (size_t w = 0; w < system.inference().num_workers(); ++w) {
        const auto& quality = system.inference().worker_quality(w).quality;
        for (ConcurrentDocsSystem* facade : {&sync_facade, &async_facade}) {
          ASSERT_EQ(facade->WithLocked([&](DocsSystem& inner) {
            return inner.inference().worker_quality(w).quality;
          }),
                    quality)
              << "worker " << w;
        }
      }

      // The index served on every path — live (exclusive) and snapshot —
      // and the periodic full inference registered as O(1) generation
      // invalidations.
      const ServingCounters counters = system.serving_counters();
      EXPECT_GT(counters.benefit_index_pops, 0u);
      EXPECT_GT(counters.benefit_index_rebuilds, 0u);
      EXPECT_GT(counters.benefit_index_generation_invalidations, 0u);
      EXPECT_GT(sync_facade.serving_counters().benefit_index_pops, 0u);
      EXPECT_GT(async_facade.serving_counters().benefit_index_pops, 0u);
      EXPECT_GT(async_facade.serving_counters().benefit_index_rebuilds, 0u);
    }
  }
}

/// The lockstep over the wire: sync and drained-async gateways at 1, 2 and
/// 4 reactors must reproduce a bare DocsSystem's campaign bit for bit —
/// selections, inferred truths and worker qualities — and the bare run's
/// post-golden selections must equal the oracle's.
TEST_F(RankingOracleTest, GatewayServingMatchesTheReferenceAcrossReactors) {
  const auto dataset = datasets::MakeItemDataset(*kb_);
  const auto truths = dataset.Truths();
  const auto inputs = Inputs(dataset);
  constexpr size_t kWorkers = 6;
  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = kWorkers;
  const auto personas = crowd::MakeWorkerPool(
      kb_->knowledge_base.num_domains(), dataset.label_to_domain, pool_options,
      77);
  DocsSystemOptions options;
  options.golden_count = 5;
  options.reinfer_every = 25;
  options.num_threads = 2;

  struct Outcome {
    std::vector<std::vector<size_t>> selections;
    std::vector<size_t> choices;
    std::vector<std::vector<double>> qualities;
  };
  // One campaign script, parameterized by how worker w requests a HIT and
  // submits an answer.
  auto run = [&](const std::function<std::vector<size_t>(size_t)>& request,
                 const std::function<void(size_t, size_t, size_t)>& submit) {
    Outcome outcome;
    Rng rng(61);
    for (size_t round = 0; round < 18; ++round) {
      const size_t w = round % kWorkers;
      const std::vector<size_t> hit = request(w);
      outcome.selections.push_back(hit);
      for (size_t task : hit) {
        submit(w, task,
               crowd::GenerateAnswer(personas[w],
                                     dataset.tasks[task].true_domain,
                                     dataset.tasks[task].truth,
                                     dataset.tasks[task].num_choices(), rng));
      }
    }
    return outcome;
  };
  auto id_of = [](size_t w) { return "w" + std::to_string(w); };

  DocsSystem baseline(&kb_->knowledge_base, options);
  ASSERT_TRUE(baseline.AddTasks(inputs, &truths).ok());
  size_t oracle_checks = 0;
  Outcome expected = run(
      [&](size_t w) {
        const size_t worker = baseline.WorkerIndex(id_of(w));
        const bool ota = PastGolden(baseline, worker, /*seeded=*/false);
        const auto reference =
            ota ? ReferenceTopK(baseline, worker, options.selection_rule, 4)
                : std::vector<size_t>{};
        const auto selected = baseline.SelectTasks(worker, 4);
        if (ota) {
          EXPECT_EQ(selected, reference);
          ++oracle_checks;
        }
        return selected;
      },
      [&](size_t w, size_t task, size_t choice) {
        EXPECT_TRUE(
            baseline.SubmitAnswer(baseline.WorkerIndex(id_of(w)), task, choice)
                .ok());
      });
  EXPECT_GT(oracle_checks, 0u);
  expected.choices = baseline.InferredChoices();
  for (size_t w = 0; w < kWorkers; ++w) {
    expected.qualities.push_back(
        baseline.inference().worker_quality(w).quality);
  }

  for (bool async : {false, true}) {
    for (size_t reactors : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(std::string(async ? "async" : "sync") + ", " +
                   std::to_string(reactors) + " reactors");
      DocsSystemOptions serving_options = options;
      serving_options.async_inference = async;
      ConcurrentDocsSystem system(&kb_->knowledge_base, serving_options);
      ASSERT_TRUE(system.AddTasks(inputs, &truths).ok());
      server::CrowdGatewayOptions gateway_options;
      gateway_options.num_reactors = reactors;
      server::CrowdGateway gateway(&system, gateway_options);
      ASSERT_TRUE(gateway.Start().ok());

      client::CrowdClientOptions client_options;
      client_options.recv_timeout_ms = 5000;
      std::vector<std::unique_ptr<client::CrowdClient>> conns;
      for (size_t w = 0; w < kWorkers; ++w) {
        conns.push_back(std::make_unique<client::CrowdClient>(client_options));
        ASSERT_TRUE(conns[w]->Connect("127.0.0.1", gateway.port()).ok());
      }

      Outcome swept = run(
          [&](size_t w) {
            system.Drain();  // no-op in sync mode
            std::vector<uint64_t> hit;
            EXPECT_TRUE(conns[w]->RequestTasks(id_of(w), 4, &hit).ok());
            return std::vector<size_t>(hit.begin(), hit.end());
          },
          [&](size_t w, size_t task, size_t choice) {
            EXPECT_TRUE(conns[w]
                            ->SubmitAnswer(id_of(w), task,
                                           static_cast<uint32_t>(choice))
                            .ok());
          });
      const server::GatewayStats stats = gateway.stats();
      EXPECT_GT(stats.benefit_index_pops, 0u);
      EXPECT_GT(stats.benefit_cache_request_hits +
                    stats.benefit_cache_request_misses,
                0u);
      gateway.Stop();
      swept.choices = system.InferredChoices();
      for (size_t w = 0; w < kWorkers; ++w) {
        swept.qualities.push_back(system.WithLocked([&](DocsSystem& inner) {
          return inner.inference().worker_quality(w).quality;
        }));
      }
      EXPECT_EQ(swept.selections, expected.selections);
      EXPECT_EQ(swept.choices, expected.choices);
      ASSERT_EQ(swept.qualities, expected.qualities);
    }
  }
}

}  // namespace
}  // namespace docs::core
