#include "core/docs_system.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/logging.h"
#include "common/math_utils.h"

namespace docs::core {

DocsSystem::DocsSystem(const kb::KnowledgeBase* knowledge_base,
                       DocsSystemOptions options)
    : kb_(knowledge_base),
      options_(std::move(options)),
      dve_(knowledge_base, options_.linker),
      pool_(options_.num_threads) {}

BenefitIndex* DocsSystem::IndexRow(size_t worker) {
  if (benefit_index_.size() <= worker) benefit_index_.resize(worker + 1);
  return &benefit_index_[worker];
}

size_t DocsSystem::SyncIndex(const std::vector<uint32_t>& answered,
                             BenefitIndex* index,
                             const std::function<double(size_t)>& score,
                             uint64_t worker_epoch, uint64_t generation,
                             const InferenceSnapshot* snap) {
  const size_t n = tasks_.size();
  // One change feed: the engine's mutation log, read live on the exclusive
  // path and from the window the snapshot carries on the snapshot path. The
  // cursor is an absolute log sequence number either way, so an index built
  // on one path catches up on the other.
  const MutationLog& log =
      snap == nullptr ? inference_->mutation_log() : snap->mutation_log;
  const uint64_t log_begin = log.begin();
  const uint64_t log_end = log.end();
  size_t scored = 0;
  // Tags fresh + cursor inside the window = replay the tail (nothing, when
  // caught up). A cursor before the window (trimmed log) or past its end (an
  // index the exclusive path built on newer live state than this snapshot)
  // = rebuild. Any entry the index doesn't contain belongs to this worker's
  // own answered set (excluded at build time).
  if (index->Fresh(worker_epoch, generation, n) &&
      index->cursor() >= log_begin && index->cursor() <= log_end) {
    for (uint64_t seq = index->cursor(); seq < log_end; ++seq) {
      const size_t task = log.at(seq);
      if (!index->contains(task)) continue;
      index->Repair(task, score(task));
      ++scored;
    }
    index->set_cursor(log_end);
    if (scored > 0) {
      benefit_index_repairs_.fetch_add(scored, std::memory_order_relaxed);
    }
  } else {
    // Rebuilds leave out the worker's booked answers: they can never become
    // eligible again, so indexing them would waste scoring and, worse, make
    // the frontier walk skip them on every pass until its budget runs out.
    index->Rebuild(n, worker_epoch, generation, log_end, &answered, score,
                   &pool_);
    scored = index->size();
    benefit_index_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }
#if DOCS_DEBUG_CHECKS
  index->CheckInvariant();
#endif
  if (scored > 0) {
    benefit_cache_misses_.fetch_add(scored, std::memory_order_relaxed);
  }
  return scored;
}

std::vector<size_t> DocsSystem::RankCore(const std::vector<uint8_t>& eligible,
                                         size_t k, const BenefitIndex& index) {
  DOCS_CHECK_EQ(eligible.size(), tasks_.size());
  std::vector<ScoredTask> scored;
  scored.reserve(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (eligible[i]) scored.push_back({i, index.value(i)});
  }
  return SelectTopKFromScored(&scored, k);
}

std::vector<size_t> DocsSystem::RankWithIndex(
    const std::vector<uint32_t>& answered, BenefitIndex* index, size_t k,
    const std::function<double(size_t)>& score, uint64_t worker_epoch,
    uint64_t generation, const std::function<bool(size_t)>& eligible_one,
    const std::function<const std::vector<uint8_t>&()>& eligible_bitmap,
    const InferenceSnapshot* snap) {
  // A request for nothing ranks nothing: no rebuild, no repair, no tally.
  if (k == 0) return {};
  const size_t scored =
      SyncIndex(answered, index, score, worker_epoch, generation, snap);
  std::vector<size_t> selected;
  uint64_t pops = 0;
  // The frontier walk may skip ineligible entries (leased-out tasks, capped
  // tasks, the answered set on the snapshot path); past this budget the pass
  // is churn-bound and the O(n) scan over the index's values is the better
  // tool.
  const size_t budget = std::max<size_t>(64, 8 * k);
  if (!index->TrySelect(eligible_one, k, budget, &selected, &pops)) {
    selected = RankCore(eligible_bitmap(), k, *index);
  }
  benefit_index_pops_.fetch_add(pops, std::memory_order_relaxed);
  // Request-level accounting: the whole pass is one lookup from the serving
  // path's point of view — served from the index as it stood or not. A pass
  // that found no eligible task served nothing and is not counted, whichever
  // route ran: with k > 0 both routes return a task iff one was eligible.
  if (!selected.empty()) {
    if (scored > 0) {
      benefit_cache_request_misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      benefit_cache_request_hits_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return selected;
}

Status DocsSystem::AddTasks(const std::vector<TaskInput>& inputs,
                            const std::vector<size_t>* known_truths) {
  if (inference_ != nullptr) {
    return FailedPreconditionError("AddTasks may be called once");
  }
  if (known_truths != nullptr && known_truths->size() != inputs.size()) {
    return InvalidArgumentError("known_truths size mismatch");
  }
  tasks_.reserve(inputs.size());
  known_truth_.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].num_choices < 2) {
      return InvalidArgumentError("tasks need at least 2 choices");
    }
    Task task;
    task.domain_vector = dve_.Estimate(inputs[i].text);  // DVE (Section 3)
    // DVE postcondition (Eq. 1): everything downstream — golden selection,
    // TI, OTA — assumes the domain vector is a probability simplex.
    CheckSimplex(task.domain_vector, 1e-6, "DVE domain vector");
    task.num_choices = inputs[i].num_choices;
    tasks_.push_back(std::move(task));
    known_truth_.push_back(
        known_truths != nullptr ? static_cast<int>((*known_truths)[i]) : -1);
  }

  // Golden tasks are chosen after DVE (Section 5.2). Only tasks whose truth
  // the requester knows are eligible; when no truths were given the golden
  // phase is disabled.
  is_golden_.assign(tasks_.size(), 0);
  if (known_truths != nullptr && options_.golden_count > 0) {
    golden_ = SelectGoldenTasks(tasks_, options_.golden_count);
    for (size_t idx : golden_.tasks) is_golden_[idx] = 1;
  }

  inference_ = std::make_unique<IncrementalTruthInference>(
      tasks_, options_.truth_inference);
  answers_per_task_.assign(tasks_.size(), 0);
  lease_count_.assign(tasks_.size(), 0);
  return OkStatus();
}

size_t DocsSystem::WorkerIndex(const std::string& external_id) {
  auto it = worker_index_.find(external_id);
  if (it != worker_index_.end()) return it->second;
  const size_t index = workers_.size();
  worker_index_.emplace(external_id, index);
  WorkerProfile profile;
  profile.external_id = external_id;
  profile.golden_done = golden_.tasks.empty();
  profile.golden_correct.assign(kb_->num_domains(), 0.0);
  profile.golden_total.assign(kb_->num_domains(), 0.0);
  workers_.push_back(std::move(profile));
  inference_->EnsureWorker(index);
  return index;
}

std::optional<size_t> DocsSystem::FindWorker(
    const std::string& external_id) const {
  auto it = worker_index_.find(external_id);
  if (it == worker_index_.end()) return std::nullopt;
  return it->second;
}

Status DocsSystem::LoadWorker(const std::string& external_id,
                              const storage::WorkerStore& store) {
  if (inference_ == nullptr) {
    return FailedPreconditionError("no tasks ingested");
  }
  auto record = store.Get(external_id);
  if (!record.ok()) return record.status();
  // Validate before registering the worker: a record written against a
  // different domain count (an old KB revision, a foreign store) would later
  // index out of bounds inside the incremental quality updates.
  const size_t m = kb_->num_domains();
  if (record->quality.size() != m || record->weight.size() != m) {
    return InvalidArgumentError(
        "worker record for " + external_id + " spans " +
        std::to_string(record->quality.size()) + " quality / " +
        std::to_string(record->weight.size()) + " weight domains, KB has " +
        std::to_string(m));
  }
  const size_t worker = WorkerIndex(external_id);
  WorkerQuality quality;
  quality.quality = record->quality;
  quality.weight = record->weight;
  Status status = inference_->SetWorkerQuality(worker, quality);
  if (!status.ok()) return status;
  // A returning worker's quality profile is already known; skip the golden
  // probe.
  workers_[worker].golden_done = true;
  return OkStatus();
}

Status DocsSystem::SaveWorker(const std::string& external_id,
                              storage::WorkerStore* store) const {
  auto it = worker_index_.find(external_id);
  if (it == worker_index_.end()) {
    return NotFoundError("unknown worker: " + external_id);
  }
  const WorkerQuality& stats = inference_->worker_quality(it->second);
  storage::WorkerQualityRecord record;
  record.quality = stats.quality;
  record.weight = stats.weight;
  return store->Put(external_id, record);
}

std::vector<size_t> DocsSystem::SelectTasks(size_t worker, size_t k) {
  if (worker >= workers_.size() || inference_ == nullptr) return {};
  ++lease_clock_;
  // A request for nothing grants nothing — golden probes included.
  if (k == 0) return {};
  WorkerProfile& profile = workers_[worker];

  // Golden phase first: probe the new worker's per-domain quality. The
  // books lead the engine, so an acked-but-unapplied golden answer is not
  // re-granted. With every golden task booked but not yet applied the
  // request falls through to OTA; the phase itself ends only when the last
  // golden answer is applied (FinishGoldenPhase seeds her quality there).
  if (!profile.golden_done) {
    std::vector<size_t> pending;
    for (size_t idx : golden_.tasks) {
      if (!HasBooked(worker, idx)) pending.push_back(idx);
      if (pending.size() == k) break;
    }
    if (!pending.empty()) {
      GrantLeases(worker, pending);
      return pending;
    }
  }

  // OTA over T - T(w), honoring the per-task redundancy cap if one is set.
  // Outstanding leases count as in-flight answers against the cap, so a task
  // already granted to enough workers is not over-assigned; abandoned grants
  // come back via ExpireLeases. Eligibility is a per-task predicate on the
  // index fast path (the frontier walk probes only the handful of tasks it
  // visits — an O(n) bitmap build here would swamp the O(k log n) walk); the
  // full bitmap is built lazily, only when the pass falls back to the scan.
  auto eligible_one = [this, worker](size_t task) {
    return !HasBooked(worker, task) && !AtAnswerCap(task);
  };
  auto eligible_bitmap = [this, worker]() -> const std::vector<uint8_t>& {
    BuildEligibilityBitmap(Booked(worker), nullptr, &eligible_scratch_);
    return eligible_scratch_;
  };

  // All four rules share the same shape — rank eligible tasks by score, take
  // the top k — so they all route through RankWithIndex: the per-worker
  // benefit index's frontier walk (DESIGN.md §16), or the scan over the
  // index's values when churn exhausts the walk.
  auto selected = RankWithIndex(
      Booked(worker), IndexRow(worker), k,
      MakeScoreFn(inference_->worker_quality(worker).quality, nullptr,
                  quality_scratch_),
      inference_->worker_epoch(worker), inference_->generation(),
      eligible_one, eligible_bitmap, nullptr);
  GrantLeases(worker, selected);
  return selected;
}

void DocsSystem::BuildEligibilityBitmap(const std::vector<uint32_t>& answered,
                                        const std::vector<uint8_t>* capped,
                                        std::vector<uint8_t>* eligible) const {
  // Starts all-eligible and masks the booked answers in O(|T(w)|) — no
  // per-task membership probes — in reusable storage so a warm scan pass
  // allocates nothing. The books lead the engine, so an acked-but-unapplied
  // answer is not re-granted.
  eligible->assign(tasks_.size(), 1);
  for (size_t task : answered) (*eligible)[task] = 0;
  if (options_.max_answers_per_task == 0) return;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (capped != nullptr ? (*capped)[i] : AtAnswerCap(i)) (*eligible)[i] = 0;
  }
}

std::function<double(size_t)> DocsSystem::MakeScoreFn(
    const std::vector<double>& worker_quality, const InferenceSnapshot* snap,
    std::vector<double>& quality) {
  // Each rule picks its posterior source once, here, not per score; the
  // live-engine callables stay small enough for std::function to hold inline.
  if (options_.selection_rule == SelectionRule::kUncertainty) {
    // Ablation: most ambiguous tasks first, worker ignored.
    if (snap != nullptr) {
      return [snap](size_t i) { return Entropy(snap->task(i).truth); };
    }
    return [this](size_t i) { return Entropy(inference_->task_truth(i)); };
  }

  quality = worker_quality;
  if (options_.selection_rule == SelectionRule::kDomainMax) {
    // D-Max: rank by domain match sum_k r_k q^w_k only.
    return [this, &quality](size_t i) {
      double match = 0.0;
      for (size_t d = 0; d < quality.size(); ++d) {
        match += tasks_[i].domain_vector[d] * quality[d];
      }
      return match;
    };
  }

  if (options_.selection_rule == SelectionRule::kQualityBlind) {
    // Ablation: flatten the worker's profile to its mean — the benefit
    // still reacts to confidence but no longer to domain match.
    double mean = 0.0;
    for (double q : quality) mean += q;
    mean /= std::max<size_t>(1, quality.size());
    std::fill(quality.begin(), quality.end(), mean);
  }
  // Per-thread arena: the scoring pass fans out over the pool, and the
  // fused kernel's intermediates are private to one Benefit call.
  if (snap != nullptr) {
    return [this, snap, &quality](size_t i) {
      thread_local BenefitScratch scratch;
      const TaskPosterior& task = snap->task(i);
      return Benefit(tasks_[i], task.truth_matrix, task.truth, quality,
                     options_.quality_clamp, &scratch);
    };
  }
  return [this, &quality](size_t i) {
    thread_local BenefitScratch scratch;
    return Benefit(tasks_[i], inference_->truth_matrix(i),
                   inference_->task_truth(i), quality,
                   options_.quality_clamp, &scratch);
  };
}

void DocsSystem::BeginShardedSelect(size_t worker, ShardScratch& scratch) {
  // Caller holds the assign lock: the clock tick, the lease-count reads and
  // the books are serialized against every other grant, expiry and booking.
  // O(|T(w)|) without a redundancy cap: no per-request O(n) bitmap fill.
  ++lease_clock_;
  scratch.answered = Booked(worker);
  scratch.capped.clear();
  if (options_.max_answers_per_task == 0) return;
  scratch.capped.resize(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) scratch.capped[i] = AtAnswerCap(i);
}

bool DocsSystem::CommitShardedSelect(size_t worker,
                                     std::vector<size_t>* selected,
                                     bool force) {
  // Between snapshot and commit other shards may have granted leases; a
  // selected task pushed to the redundancy cap in that window must not be
  // over-assigned. Under sequential driving this never fires, which keeps
  // the snapshot path bit-identical to the monolithic SelectTasks.
  if (options_.max_answers_per_task > 0) {
    bool conflict = false;
    for (size_t task : *selected) {
      if (AtAnswerCap(task)) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      if (!force) return false;
      std::vector<size_t> kept;
      kept.reserve(selected->size());
      for (size_t task : *selected) {
        if (!AtAnswerCap(task)) kept.push_back(task);
      }
      *selected = std::move(kept);
    }
  }
  GrantLeases(worker, *selected);
  return true;
}

std::vector<double> DocsSystem::ScoreAllTasks(size_t worker, bool cold) {
  std::vector<double> scores(tasks_.size(), 0.0);
  if (worker >= workers_.size() || inference_ == nullptr) return scores;
  const std::function<double(size_t)> score = MakeScoreFn(
      inference_->worker_quality(worker).quality, nullptr, quality_scratch_);
  if (cold) {
    ParallelFor(&pool_, tasks_.size(),
                [&](size_t i) { scores[i] = score(i); });
    return scores;
  }
  // Not a serving pass: the index syncs as a request would, but the
  // request-level tally does not move.
  BenefitIndex* index = IndexRow(worker);
  SyncIndex(Booked(worker), index, score, inference_->worker_epoch(worker),
            inference_->generation(), nullptr);
  uint64_t excluded = 0;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (index->contains(i)) {
      scores[i] = index->value(i);
    } else {
      scores[i] = score(i);
      ++excluded;
    }
  }
  benefit_cache_misses_.fetch_add(excluded, std::memory_order_relaxed);
  return scores;
}

void DocsSystem::GrantLeases(size_t worker,
                             const std::vector<size_t>& granted) {
  if (options_.lease_duration == 0) return;
  const uint64_t deadline = lease_clock_ + options_.lease_duration;
  for (size_t task : granted) {
    auto [it, inserted] = leases_.try_emplace(LeaseKey(worker, task), deadline);
    if (inserted) {
      ++lease_count_[task];
    } else {
      it->second = deadline;  // Re-granted to the same worker: refresh.
    }
  }
}

void DocsSystem::ReleaseLease(size_t worker, size_t task) {
  if (leases_.empty()) return;
  auto it = leases_.find(LeaseKey(worker, task));
  if (it == leases_.end()) return;
  leases_.erase(it);
  --lease_count_[task];
}

std::vector<ExpiredLease> DocsSystem::ExpireLeases(uint64_t now) {
  std::vector<ExpiredLease> expired;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second <= now) {
      ExpiredLease lease;
      lease.worker = static_cast<size_t>(it->first >> 32);
      lease.task = static_cast<size_t>(it->first & 0xffffffffULL);
      lease.deadline = it->second;
      expired.push_back(lease);
      --lease_count_[lease.task];
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  // Hash-map iteration order is not part of the contract; sort so chaos
  // campaigns replay identically across runs and standard libraries.
  std::sort(expired.begin(), expired.end(),
            [](const ExpiredLease& a, const ExpiredLease& b) {
              if (a.worker != b.worker) return a.worker < b.worker;
              return a.task < b.task;
            });
  return expired;
}

void DocsSystem::FinishGoldenPhase(size_t worker) {
  WorkerProfile& profile = workers_[worker];
  const size_t m = kb_->num_domains();
  WorkerQuality quality;
  quality.quality.resize(m);
  quality.weight.resize(m);
  const double smoothing = options_.golden_smoothing;
  const double default_quality = options_.truth_inference.default_quality;
  for (size_t k = 0; k < m; ++k) {
    // With golden_smoothing == 0 and no probe mass in domain k the ratio
    // would be 0/0; fall back to the default rather than minting a NaN seed.
    const double mass = profile.golden_total[k] + smoothing;
    quality.quality[k] =
        mass > 0.0
            ? (profile.golden_correct[k] + smoothing * default_quality) / mass
            : default_quality;
    quality.weight[k] = profile.golden_total[k];
  }
  DOCS_DCHECK_UNIT_INTERVAL(quality.quality, 1e-9,
                            "golden-phase quality seed");
  Status status = inference_->SetWorkerQuality(worker, quality);
  if (!status.ok()) {
    // Unreachable: the profile tallies are sized from the same KB the tasks
    // were vectorized against. Kept as a hard guard.
    DOCS_LOG(Warning) << "golden-phase seed rejected: " << status.ToString();
  }
  profile.golden_done = true;
}

Status DocsSystem::ValidateAnswer(size_t worker, size_t task,
                                  size_t choice) const {
  if (inference_ == nullptr) {
    return FailedPreconditionError("no tasks ingested");
  }
  // Bounds come first: a malformed task index must never reach
  // answers_per_task_[task] / tasks_[task] / is_golden_[task]. Task
  // metadata is immutable after ingest, so these reads need no state lock.
  if (task >= tasks_.size()) {
    return InvalidArgumentError("unknown task " + std::to_string(task));
  }
  if (choice >= tasks_[task].num_choices) {
    return OutOfRangeError("choice " + std::to_string(choice) +
                           " out of range for task " + std::to_string(task) +
                           " with " + std::to_string(tasks_[task].num_choices) +
                           " choices");
  }
  if (HasBooked(worker, task)) {
    return AlreadyExistsError("duplicate answer from worker " +
                              std::to_string(worker) + " for task " +
                              std::to_string(task));
  }
  return OkStatus();
}

const std::vector<uint32_t>& DocsSystem::Booked(size_t worker) const {
  static const std::vector<uint32_t> kNone;
  return worker < answered_.size() ? answered_[worker] : kNone;
}

bool DocsSystem::HasBooked(size_t worker, size_t task) const {
  const std::vector<uint32_t>& answered = Booked(worker);
  return std::binary_search(answered.begin(), answered.end(), task);
}

bool DocsSystem::AtAnswerCap(size_t task) const {
  return options_.max_answers_per_task > 0 &&
         answers_per_task_[task] + lease_count_[task] >=
             options_.max_answers_per_task;
}

void DocsSystem::BookAnswer(size_t worker, size_t task) {
  if (answered_.size() <= worker) answered_.resize(worker + 1);
  std::vector<uint32_t>& answered = answered_[worker];
  answered.insert(std::upper_bound(answered.begin(), answered.end(), task),
                  static_cast<uint32_t>(task));
  ++answers_per_task_[task];
  ReleaseLease(worker, task);
}

Status DocsSystem::AdmitAnswer(size_t worker, size_t task, size_t choice) {
  if (inference_ != nullptr && worker >= workers_.size()) {
    return InvalidArgumentError("unknown worker " + std::to_string(worker));
  }
  Status status = ValidateAnswer(worker, task, choice);
  if (status.ok()) BookAnswer(worker, task);
  return status;
}

bool DocsSystem::AbsorbAnswer(size_t worker, size_t task, size_t choice) {
  WorkerProfile& profile = workers_[worker];
  const bool golden_answer =
      is_golden_[task] && known_truth_[task] >= 0 && !profile.golden_done;

  Status status = inference_->OnAnswer(worker, task, choice);
  if (!status.ok()) {
    // Unreachable after ValidateAnswer; kept as a hard guard.
    DOCS_LOG(Warning) << "inference rejected answer: " << status.ToString();
    return false;
  }

  if (golden_answer) {
    const auto& r = tasks_[task].domain_vector;
    const bool correct = static_cast<int>(choice) == known_truth_[task];
    for (size_t k = 0; k < r.size(); ++k) {
      profile.golden_total[k] += r[k];
      if (correct) profile.golden_correct[k] += r[k];
    }
    ++profile.golden_answered;
    if (profile.golden_answered >= golden_.tasks.size()) {
      FinishGoldenPhase(worker);
    }
  }
  return true;
}

void DocsSystem::Reinfer() {
  inference_->RunFullInference(&pool_);
  answers_since_reinfer_ = 0;
  generation_invalidations_.fetch_add(1, std::memory_order_relaxed);
}

Status DocsSystem::SubmitAnswer(size_t worker, size_t task, size_t choice) {
  Status status = AdmitAnswer(worker, task, choice);
  if (!status.ok()) return status;
  return ApplyAnswer(worker, task, choice);
}

Status DocsSystem::ApplyAnswer(size_t worker, size_t task, size_t choice) {
  if (!AbsorbAnswer(worker, task, choice)) {
    return InternalError("inference rejected a booked answer");
  }
  // Delayed full inference every z submissions (Section 4.2), on the
  // system's one pool.
  if (options_.reinfer_every > 0 &&
      ++answers_since_reinfer_ >= options_.reinfer_every) {
    Reinfer();
  }
  return OkStatus();
}

ServingCounters DocsSystem::serving_counters() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  ServingCounters out;
  out.benefit_cache_misses = benefit_cache_misses_.load(kRelaxed);
  out.benefit_cache_request_hits = benefit_cache_request_hits_.load(kRelaxed);
  out.benefit_cache_request_misses =
      benefit_cache_request_misses_.load(kRelaxed);
  out.benefit_index_pops = benefit_index_pops_.load(kRelaxed);
  out.benefit_index_repairs = benefit_index_repairs_.load(kRelaxed);
  out.benefit_index_rebuilds = benefit_index_rebuilds_.load(kRelaxed);
  out.benefit_index_generation_invalidations =
      generation_invalidations_.load(kRelaxed);
  return out;
}

std::shared_ptr<const InferenceSnapshot> DocsSystem::BuildSnapshot(
    const InferenceSnapshot* prev) {
  auto snap = std::make_shared<InferenceSnapshot>();
  snap->epoch = prev != nullptr ? prev->epoch + 1 : 1;
  if (inference_ == nullptr) return snap;
  snap->generation = inference_->generation();
  // A full re-inference moves every quality vector without bumping a worker
  // epoch, so a worker view is shared only within one generation.
  const bool same_generation =
      prev != nullptr && prev->generation == snap->generation;

  // The mutation-log window: an index synced anywhere inside it repairs the
  // tail instead of rebuilding (DESIGN.md §16). The copy shares the log's
  // segments by pointer.
  snap->mutation_log = inference_->mutation_log();

  snap->task_chunks = inference_->SharePosteriors();

  snap->workers.resize(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    // IndexRow grows the container under the exclusive lock held here, so
    // the snapshot path never has to (growth is exclusive-path work). An
    // index's address is stable for the system's lifetime (deque) — safe to
    // publish.
    BenefitIndex* index = IndexRow(w);
    const uint64_t epoch = inference_->worker_epoch(w);
    const bool servable = workers_[w].golden_done;
    if (same_generation && w < prev->workers.size() &&
        prev->workers[w] != nullptr && prev->workers[w]->epoch == epoch &&
        prev->workers[w]->servable == servable &&
        prev->workers[w]->index == index) {
      snap->workers[w] = prev->workers[w];
      continue;
    }
    auto view = std::make_shared<WorkerSnapshot>();
    view->quality = inference_->worker_quality(w).quality;
    view->epoch = epoch;
    view->servable = servable;
    view->index = index;
    snap->workers[w] = std::move(view);
  }
  return snap;
}

std::vector<size_t> DocsSystem::ScoreAndRankSnapshot(
    const InferenceSnapshot& snap, size_t worker, ShardScratch& scratch,
    size_t k) {
  const WorkerSnapshot& view = *snap.workers[worker];
  // The index syncs against the snapshot's worker epoch, generation and
  // mutation-log window: an index built on newer state (its cursor past the
  // window's end) rebuilds here, so every score it serves is the one this
  // snapshot's posteriors yield.
  const std::function<double(size_t)> score =
      MakeScoreFn(view.quality, &snap, scratch.quality);
  // Eligibility was frozen into the scratch books under the assign lock
  // (BeginShardedSelect); both the index walk and the scan fallback pick
  // from that one candidate set. The bitmap is built only for the scan.
  auto eligible_one = [&scratch](size_t task) {
    return !std::binary_search(scratch.answered.begin(),
                               scratch.answered.end(), task) &&
           (scratch.capped.empty() || scratch.capped[task] == 0);
  };
  auto eligible_bitmap = [this, &scratch]() -> const std::vector<uint8_t>& {
    BuildEligibilityBitmap(scratch.answered, &scratch.capped,
                           &scratch.eligible);
    return scratch.eligible;
  };
  return RankWithIndex(scratch.answered, view.index, k, score, view.epoch,
                       snap.generation, eligible_one, eligible_bitmap, &snap);
}

void DocsSystem::OnAnswer(size_t worker, size_t task, size_t choice) {
  Status status = SubmitAnswer(worker, task, choice);
  if (!status.ok()) {
    DOCS_LOG(Warning) << "OnAnswer: " << status.ToString();
  }
}

std::vector<size_t> DocsSystem::InferredChoices() {
  if (inference_ == nullptr) return {};
  return inference_->InferredChoices();
}

void DocsSystem::RunFullInference() {
  if (inference_ != nullptr) Reinfer();
}

std::vector<std::string> DocsSystem::WorkerIds() const {
  std::vector<std::string> ids;
  ids.reserve(workers_.size());
  for (const WorkerProfile& worker : workers_) {
    ids.push_back(worker.external_id);
  }
  return ids;
}

Status DocsSystem::SaveCheckpoint(const std::string& path) const {
  if (inference_ == nullptr) {
    return FailedPreconditionError("no tasks ingested");
  }
  storage::StateCheckpoint checkpoint;
  checkpoint.tasks.reserve(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    storage::StateCheckpoint::TaskState task;
    task.domain_vector = tasks_[i].domain_vector;
    task.num_choices = tasks_[i].num_choices;
    task.known_truth = known_truth_[i];
    checkpoint.tasks.push_back(std::move(task));
  }
  checkpoint.golden_tasks = golden_.tasks;
  checkpoint.workers.reserve(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    storage::StateCheckpoint::WorkerState worker;
    worker.external_id = workers_[w].external_id;
    worker.golden_done = workers_[w].golden_done;
    const WorkerQuality& seed = inference_->worker_seed(w);
    worker.seed_quality = seed.quality;
    worker.seed_weight = seed.weight;
    checkpoint.workers.push_back(std::move(worker));
  }
  // The answers are streamed from the engine as the file is written, not
  // copied into the checkpoint first.
  auto answers = [this](const storage::AnswerRecordSink& emit) {
    inference_->ForEachAnswer([&emit](const Answer& answer) {
      emit({answer.task, answer.worker, answer.choice});
    });
  };
  return storage::SaveStateCheckpoint(checkpoint, answers, path);
}

Status DocsSystem::LoadCheckpoint(const std::string& path) {
  if (inference_ != nullptr) {
    return FailedPreconditionError("system already holds tasks");
  }
  auto checkpoint = storage::LoadStateCheckpoint(path);
  if (!checkpoint.ok()) return checkpoint.status();

  // Checkpoint contents are file data: validate them Status-grade here, up
  // front, because past this point they flow into CHECK-guarded code (the
  // incremental-TI constructor asserts on the domain vectors) and into
  // is_golden_ indexing. A corrupt file must surface as DataLossError, not
  // as an abort or an out-of-bounds write.
  for (size_t i = 0; i < checkpoint->tasks.size(); ++i) {
    const auto& task = checkpoint->tasks[i];
    if (task.num_choices < 2) {
      return DataLossError("checkpoint task " + std::to_string(i) + " has " +
                           std::to_string(task.num_choices) + " choices");
    }
    for (double r : task.domain_vector) {
      if (!std::isfinite(r) || r < -1e-9 || r > 1.0 + 1e-9) {
        return DataLossError("checkpoint task " + std::to_string(i) +
                             " has a corrupt domain vector entry " +
                             std::to_string(r));
      }
    }
  }
  for (size_t idx : checkpoint->golden_tasks) {
    if (idx >= checkpoint->tasks.size()) {
      return DataLossError("checkpoint golden task index " +
                           std::to_string(idx) + " out of range");
    }
  }

  tasks_.clear();
  known_truth_.clear();
  for (const auto& task : checkpoint->tasks) {
    Task restored;
    restored.domain_vector = task.domain_vector;
    restored.num_choices = task.num_choices;
    tasks_.push_back(std::move(restored));
    known_truth_.push_back(task.known_truth);
  }
  golden_ = GoldenSelectionResult{};
  golden_.tasks = checkpoint->golden_tasks;
  is_golden_.assign(tasks_.size(), 0);
  for (size_t idx : golden_.tasks) is_golden_[idx] = 1;

  inference_ = std::make_unique<IncrementalTruthInference>(
      tasks_, options_.truth_inference);
  answered_.clear();
  answers_per_task_.assign(tasks_.size(), 0);
  lease_count_.assign(tasks_.size(), 0);
  leases_.clear();  // Leases are volatile: a restore reclaims all grants.

  // Re-register workers in index order, restore their seed profiles and
  // golden progress flags.
  for (size_t w = 0; w < checkpoint->workers.size(); ++w) {
    const auto& stored = checkpoint->workers[w];
    const size_t index = WorkerIndex(stored.external_id);
    if (index != w) return DataLossError("worker index mismatch on restore");
    if (!stored.seed_quality.empty()) {
      WorkerQuality seed;
      seed.quality = stored.seed_quality;
      seed.weight = stored.seed_weight;
      Status seed_status = inference_->SetWorkerQuality(index, seed);
      if (!seed_status.ok()) {
        // Same policy as corrupt answer records: drop the bad seed (the
        // worker restarts from the default profile) instead of failing the
        // whole restore.
        DOCS_LOG(Warning) << "checkpoint seed for worker '"
                          << stored.external_id
                          << "' dropped: " << seed_status.ToString();
      }
    }
    workers_[index].golden_done =
        stored.golden_done || golden_.tasks.empty();
  }

  // Replay answers: inference state rebuilds exactly; golden tallies for
  // workers still mid-probe are recomputed from the golden answers. Records
  // that fail the same validation live submissions go through (out-of-range
  // task/choice, duplicate (worker, task)) are dropped individually — a
  // corrupted record must neither index out of range nor lose the session.
  size_t replayed = 0;
  size_t dropped = 0;
  for (const auto& answer : checkpoint->answers) {
    if (!AdmitAnswer(answer.worker, answer.task, answer.choice).ok()) {
      ++dropped;
      continue;
    }
    if (AbsorbAnswer(answer.worker, answer.task, answer.choice)) ++replayed;
  }
  if (dropped > 0) {
    DOCS_LOG(Warning) << "checkpoint replay dropped " << dropped
                      << " invalid answer record(s), kept " << replayed;
  }
  if (replayed > 0) Reinfer();
  answers_since_reinfer_ = 0;
  return OkStatus();
}

}  // namespace docs::core
