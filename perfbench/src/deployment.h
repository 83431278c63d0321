#ifndef DOCS_PERFBENCH_DEPLOYMENT_H_
#define DOCS_PERFBENCH_DEPLOYMENT_H_

// The three serving workloads and the self-hosted deployment each one runs
// against: knowledge base, generated campaign, DOCS facade (optionally behind
// the durable layer), and the TCP gateway in front of it.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/concurrent_docs_system.h"
#include "core/durable_docs_system.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "measure.h"
#include "server/crowd_gateway.h"
#include "storage/worker_store.h"

namespace perfbench {

namespace core = docs::core;
namespace crowd = docs::crowd;
namespace datasets = docs::datasets;
namespace kb = docs::kb;

/// Fixed across workloads: tasks per HIT (the paper's k), the closed-loop
/// connections, and the gateway's reactor threads. Three connections on one
/// reactor keep client threads plus reactors within the host's four cores;
/// README.md explains why not two and two.
inline constexpr size_t kHitSize = 20;
inline constexpr size_t kConnections = 3;
inline constexpr size_t kReactors = 1;
/// Scoring-pool threads (DocsSystemOptions::num_threads). With the reactor
/// and the inference service thread this fills the host's four cores; the
/// default (one per core) oversubscribes them, and EM fan-out speed then
/// swung async throughput by 2x between runs of one seed.
inline constexpr size_t kPoolThreads = 2;
/// Durable serving checkpoints (and truncates the WAL) this often, in
/// answers.
inline constexpr size_t kCheckpointEvery = 1000;
/// Browsing sessions answer one task of the HIT in this share of sessions.
inline constexpr double kBrowseAnswerShare = 1.0 / 1000.0;

struct WorkloadSpec {
  std::string name;
  size_t num_tasks = 4000;
  size_t num_workers = 60;
  /// Full EM cadence z (answers between passes); 0 = no periodic pass.
  size_t reinfer_every = 100;
  bool async_inference = false;
  /// Serve through DurableDocsSystem: WAL append + flush before each ack,
  /// a checkpoint every kCheckpointEvery answers.
  bool durable = false;
  /// Browsing traffic: returning workers (stored quality profiles, so no
  /// golden phase) request HITs and answer one task of one in
  /// 1/kBrowseAnswerShare of them. Otherwise every session answers its HIT.
  bool browse = false;
};

/// nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Inputs generated from the seed: the task campaign and the worker pool.
/// The system under test sees only the task texts, the golden truths, the
/// returning workers' stored profiles, and the answers sent over the wire.
struct Campaign {
  datasets::Dataset dataset;
  std::vector<crowd::SimulatedWorker> workers;
};

/// Set-up wall times, seconds: the two steps reported per layer, and the
/// whole set-up from its start instant until the gateway accepts.
struct SetupTimes {
  double kb_build_s = 0.0;
  double add_tasks_s = 0.0;
  double total_s = 0.0;
};

/// One self-hosted serving deployment. Members are declared in dependency
/// order so destruction runs gateway → durable layer → facade → inputs.
class Deployment {
 public:
  /// Builds everything and starts the gateway; `start` is the instant the
  /// set-up clock runs from. `spans` (nullable) receives one span per step.
  /// `scratch_dir` holds the durable layer's directory, created fresh.
  static std::unique_ptr<Deployment> Create(const WorkloadSpec& spec,
                                            uint64_t seed,
                                            const std::string& scratch_dir,
                                            Clock::time_point start,
                                            SpanBuffer* spans,
                                            std::string* error);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const WorkloadSpec& spec() const { return spec_; }
  const kb::SyntheticKb& knowledge() const { return *kb_; }
  const Campaign& campaign() const { return campaign_; }
  core::ConcurrentDocsSystem& system() { return *system_; }
  core::DurableDocsSystem* durable() { return durable_.get(); }
  docs::server::CrowdGateway& gateway() { return *gateway_; }
  const SetupTimes& times() const { return times_; }
  const std::string& durable_dir() const { return durable_dir_; }

  /// Stops the gateway, drops the serving state, and removes the durable
  /// directory. False when the directory could not be removed.
  bool Shutdown();

 private:
  explicit Deployment(WorkloadSpec spec) : spec_(std::move(spec)) {}

  WorkloadSpec spec_;
  SetupTimes times_;
  std::string durable_dir_;
  std::unique_ptr<kb::SyntheticKb> kb_;
  Campaign campaign_;
  std::unique_ptr<core::ConcurrentDocsSystem> system_;
  std::unique_ptr<core::DurableDocsSystem> durable_;
  std::unique_ptr<docs::server::CrowdGateway> gateway_;
};

/// The facade options a workload serves with.
core::DocsSystemOptions SystemOptions(const WorkloadSpec& spec);

/// Generates the campaign for `seed` over the knowledge base.
Campaign MakeCampaign(const WorkloadSpec& spec, const kb::SyntheticKb& kb,
                      uint64_t seed);

/// The stored profile of a returning worker: the worker's latent per-domain
/// quality, weighted as if learned from earlier campaigns.
docs::storage::WorkerQualityRecord ReturningProfile(
    const crowd::SimulatedWorker& worker);

/// Stable external id of worker `index`.
std::string WorkerId(size_t index);

/// Creates `path` (and parents); removes it first when present.
bool ResetDirectory(const std::string& path, std::string* error);
bool RemoveDirectory(const std::string& path);

}  // namespace perfbench

#endif  // DOCS_PERFBENCH_DEPLOYMENT_H_
