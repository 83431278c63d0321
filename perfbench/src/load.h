#ifndef DOCS_PERFBENCH_LOAD_H_
#define DOCS_PERFBENCH_LOAD_H_

// The closed-loop wire pass: one client thread per connection, each cycling
// through its own share of simulated worker identities one HIT session at a
// time, every call timed at the client and checked against the HIT
// contract.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/resilient_client.h"
#include "common/rng.h"
#include "deployment.h"
#include "measure.h"

namespace perfbench {

/// One wire call as the client saw it.
struct WireOp {
  enum class Kind : uint8_t { kRequest, kSubmit };
  Kind kind = Kind::kRequest;
  bool ok = false;
  bool traced = false;  ///< issued in a traced session
  uint32_t worker = 0;
  uint32_t task = 0;    ///< submit only
  uint32_t choice = 0;  ///< submit only
  /// The HIT a request returned: [hit_begin, hit_end) of hit_tasks,
  /// recorded on traced runs only.
  uint32_t hit_begin = 0;
  uint32_t hit_end = 0;
  uint64_t request = 0;  ///< id shared by this op's spans in every layer
  double micros = 0.0;
};

/// A uniform random sample (reservoir) of up to kCapacity latencies, held
/// in memory allocated before the pass, so the benchmark's own footprint in
/// peak_rss_mb does not grow with the number of calls.
class LatencySample {
 public:
  static constexpr size_t kCapacity = 1 << 16;
  explicit LatencySample(uint64_t seed) : rng_(seed), values_(kCapacity) {}
  void Add(double micros);
  /// The sampled latencies: every one while fewer than kCapacity were added.
  std::vector<double> values() const;

 private:
  docs::Rng rng_;
  std::vector<double> values_;
  size_t added_ = 0;
};

struct ConnectionLog {
  /// Every call, recorded on traced passes only (the replay and the
  /// standalone passes re-run them).
  std::vector<WireOp> ops;
  std::vector<uint64_t> hit_tasks;
  size_t attempted = 0;
  size_t completed[2] = {0, 0};  ///< successful calls, by WireOp::Kind
  std::vector<LatencySample> latencies;  ///< successful calls, by kind
  std::vector<uint8_t> answered_tasks;   ///< tasks with an acked answer
  size_t failed = 0;          ///< non-OK calls plus empty or short HITs
  size_t check_failures = 0;  ///< HITs that broke the HIT contract
  std::string first_problem;
  double wire_us = 0.0;  ///< time inside wire calls
  double loop_s = 0.0;   ///< the thread's measured wall time
  docs::client::ResilientClientStats client;
  std::unique_ptr<SpanBuffer> spans;
};

struct LoadOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Alternate untraced and traced HIT sessions (spans recorded in the
  /// traced ones) instead of running untraced throughout.
  bool trace = false;
};

struct LoadResult {
  std::vector<ConnectionLog> connections;
  double wall_s = 0.0;

  size_t Attempted() const;
  size_t Failed() const;
  size_t CheckFailures() const;
  size_t Completed() const;
  size_t Completed(WireOp::Kind kind) const;
  /// Latencies (µs) of successful calls of `kind`: a uniform sample of up to
  /// LatencySample::kCapacity per connection (kAll), or, on traced passes,
  /// every call of the traced (or untraced) sessions.
  enum class Sessions { kAll, kTraced, kUntraced };
  std::vector<double> Latencies(WireOp::Kind kind,
                                Sessions sessions = Sessions::kAll) const;
  /// Acknowledged answers, and the distinct tasks they cover.
  size_t AckedAnswers() const;
  std::vector<uint8_t> AnsweredTasks(size_t num_tasks) const;
  /// Share of client-thread time spent outside wire calls.
  double GeneratorShare() const;
  /// 1 - traced / untraced throughput, each estimated from the median call
  /// time per call kind (robust to the EM passes that land in either).
  double TraceOverhead() const;
  std::string FirstProblem() const;
};

LoadResult DriveLoad(Deployment& deployment, const LoadOptions& options);

/// Output checks run after every wire pass: the serving state after Drain()
/// must account for every acknowledged answer, nothing may have been shed
/// or rejected as a protocol error, and every HIT honoured its contract.
/// Also scores accuracy: over the answered non-golden tasks, the share whose
/// inferred choice equals the dataset truth.
struct ServingChecks {
  bool ok = true;
  std::string problem;
  double accuracy = 0.0;
  size_t accuracy_tasks = 0;
  double drain_ms = 0.0;  ///< the end-of-run Drain()
  docs::server::GatewayStats stats;

  void Fail(const std::string& why) {
    if (ok) problem = why;
    ok = false;
  }
};

ServingChecks CheckServing(Deployment& deployment, const LoadResult& load);

}  // namespace perfbench

#endif  // DOCS_PERFBENCH_LOAD_H_
