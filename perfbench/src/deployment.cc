#include "deployment.h"

#include <filesystem>
#include <system_error>

namespace perfbench {
namespace {

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<WorkloadSpec> AllWorkloads() {
  // The headline loop: every request rescores cold (the submitting worker's
  // epoch moved), every 100th answer runs the EM pass under the state lock.
  WorkloadSpec sync;
  sync.name = "qa-sync";

  // Same traffic and seed, inference off the serving path, every answer
  // WAL-appended and flushed before its ack, periodic checkpoints.
  WorkloadSpec durable = sync;
  durable.name = "qa-async-durable";
  durable.async_inference = true;
  durable.durable = true;

  // Read-mostly browsing over a large pool with no periodic EM: an EM pass
  // would stale every worker's rows at once, and cold rebuilds instead of
  // the warm index path would dominate. Each answer makes that worker's
  // next visit a cold rebuild, so about one request in 200 is cold.
  WorkloadSpec browse;
  browse.name = "browse-20k";
  browse.num_tasks = 20000;
  browse.num_workers = 200;
  browse.reinfer_every = 0;
  browse.browse = true;
  return {sync, durable, browse};
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : AllWorkloads()) names.push_back(spec.name);
  return names;
}

core::DocsSystemOptions SystemOptions(const WorkloadSpec& spec) {
  core::DocsSystemOptions options;
  options.reinfer_every = spec.reinfer_every;
  options.async_inference = spec.async_inference;
  options.num_threads = kPoolThreads;
  return options;
}

Campaign MakeCampaign(const WorkloadSpec& spec, const kb::SyntheticKb& kb,
                      uint64_t seed) {
  Campaign campaign;
  campaign.dataset = datasets::MakeQaDataset(kb, spec.num_tasks, Mix(seed, 1));
  // The bench pool: MTurk-like conditions with an adversarial tail, a
  // constant-answer coalition, mediocre generalists and experts only in a
  // worker's own domains (the same mix the paper-figure harnesses use).
  crowd::WorkerPoolOptions options;
  options.num_workers = spec.num_workers;
  options.spammer_fraction = 0.2;
  options.spammer_min = 0.2;
  options.spammer_max = 0.5;
  options.constant_answerer_fraction = 0.12;
  options.base_min = 0.5;
  options.base_max = 0.68;
  options.expert_min = 0.82;
  options.expert_max = 0.95;
  options.activity_sigma = 0.6;
  campaign.workers =
      crowd::MakeWorkerPool(kb.knowledge_base.num_domains(),
                            campaign.dataset.label_to_domain, options,
                            Mix(seed, 2));
  return campaign;
}

docs::storage::WorkerQualityRecord ReturningProfile(
    const crowd::SimulatedWorker& worker) {
  docs::storage::WorkerQualityRecord record;
  record.quality = worker.true_quality;
  record.weight.assign(worker.true_quality.size(), 10.0);
  return record;
}

std::string WorkerId(size_t index) {
  // Appending (not "w" + to_string) sidesteps GCC 12's -Wrestrict false
  // positive on operator+ (PR105651).
  std::string id = "w";
  id += std::to_string(index);
  return id;
}

bool ResetDirectory(const std::string& path, std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  if (ec) {
    *error = "cannot create " + path + ": " + ec.message();
    return false;
  }
  return true;
}

bool RemoveDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return !ec && !std::filesystem::exists(path, ec);
}

std::unique_ptr<Deployment> Deployment::Create(const WorkloadSpec& spec,
                                               uint64_t seed,
                                               const std::string& scratch_dir,
                                               Clock::time_point start,
                                               SpanBuffer* spans,
                                               std::string* error) {
  std::unique_ptr<Deployment> d(new Deployment(spec));
  ScopedSpan setup(spans, "bench.setup");
  // Runs one step under its span; records its wall time when `out` is set.
  auto step = [&](double* out, const char* name, auto&& body) {
    ScopedSpan span(spans, name, setup.id());
    const auto t0 = Clock::now();
    const bool ok = body();
    if (out != nullptr) *out = SecondsSince(t0, Clock::now());
    return ok;
  };

  step(&d->times_.kb_build_s, "kb.build", [&] {
    d->kb_ = std::make_unique<kb::SyntheticKb>(kb::BuildSyntheticKb());
    return true;
  });
  step(nullptr, "bench.campaign", [&] {
    d->campaign_ = MakeCampaign(spec, *d->kb_, seed);
    return true;
  });
  const bool added = step(&d->times_.add_tasks_s, "core.add_tasks", [&] {
    d->system_ = std::make_unique<core::ConcurrentDocsSystem>(
        &d->kb_->knowledge_base, SystemOptions(spec));
    std::vector<core::TaskInput> inputs;
    inputs.reserve(d->campaign_.dataset.tasks.size());
    for (const auto& task : d->campaign_.dataset.tasks) {
      inputs.push_back({task.text, task.num_choices()});
    }
    const std::vector<size_t> truths = d->campaign_.dataset.Truths();
    docs::Status status = d->system_->AddTasks(inputs, &truths);
    if (!status.ok()) *error = "AddTasks: " + status.ToString();
    return status.ok();
  });
  if (!added) return nullptr;

  if (spec.browse) {
    const bool loaded =
        step(nullptr, "core.load_workers", [&] {
          auto store = docs::storage::WorkerStore::InMemory(
              d->kb_->knowledge_base.num_domains());
          for (size_t w = 0; w < d->campaign_.workers.size(); ++w) {
            docs::Status status = store.Put(
                WorkerId(w), ReturningProfile(d->campaign_.workers[w]));
            if (status.ok()) {
              status = d->system_->LoadWorker(WorkerId(w), store);
            }
            if (!status.ok()) {
              *error = "LoadWorker: " + status.ToString();
              return false;
            }
          }
          return true;
        });
    if (!loaded) return nullptr;
  }

  const bool started = step(nullptr, "server.start", [&] {
    docs::server::CrowdGatewayOptions options;
    options.num_reactors = kReactors;
    if (spec.durable) {
      d->durable_dir_ = scratch_dir + "/durable";
      if (!ResetDirectory(d->durable_dir_, error)) return false;
      core::DurableOptions durable_options;
      durable_options.dir = d->durable_dir_;
      durable_options.checkpoint_every = kCheckpointEvery;
      d->durable_ = std::make_unique<core::DurableDocsSystem>(
          d->system_.get(), durable_options);
      d->gateway_ = std::make_unique<docs::server::CrowdGateway>(
          d->durable_.get(), options);
    } else {
      d->gateway_ = std::make_unique<docs::server::CrowdGateway>(
          d->system_.get(), options);
    }
    docs::Status status = d->gateway_->Start();
    if (!status.ok()) *error = "gateway start: " + status.ToString();
    return status.ok();
  });
  if (!started) return nullptr;
  d->times_.total_s = SecondsSince(start, Clock::now());
  return d;
}

bool Deployment::Shutdown() {
  if (gateway_ != nullptr) gateway_->Stop();
  gateway_.reset();
  durable_.reset();
  system_.reset();
  return durable_dir_.empty() || RemoveDirectory(durable_dir_);
}

Deployment::~Deployment() { Shutdown(); }

}  // namespace perfbench
