#ifndef DOCS_PERFBENCH_LAYERS_H_
#define DOCS_PERFBENCH_LAYERS_H_

// The traced run (--trace 1): the per-layer breakdown of one workload.
//
//  1. Set-up, with a span around each call (KB build, campaign, AddTasks,
//     LoadWorker, gateway Start/Recover).
//  2. The wire pass, alternating untraced and traced HIT sessions; traced
//     sessions record a span per wire call at the client. Their throughput
//     ratio is the tracing overhead.
//  3. An in-process replay of the recorded op stream against a fresh
//     facade (or durable layer, as the workload serves) restored from the
//     pre-traffic checkpoint, one thread per connection, a span per call.
//  4. Standalone passes over the recorded frames and answers through the
//     net codec, the answer WAL, the durable layer over an async facade,
//     and the set-up modules (linker, DVE, golden selection, scoring).
//
// Counters come from the gateway's stats and the facades' num_answers().
// Spans are kept in memory and written to `trace_path` at the end as TSV:
// id, parent, request, name, start_ns, end_ns.

#include <string>

#include "deployment.h"
#include "measure.h"

namespace perfbench {

struct LayerReport {
  bool ok = true;          ///< every output check passed
  std::string problem;     ///< the first failed check
  std::string error;       ///< the run could not complete at all
  size_t attempted = 0;
  size_t failed = 0;
  MetricSink sink;

  void Fail(const std::string& why) {
    if (ok) problem = why;
    ok = false;
  }
};

LayerReport RunLayers(const WorkloadSpec& spec, uint64_t seed, double seconds,
                      const std::string& scratch_dir,
                      const std::string& trace_path);

}  // namespace perfbench

#endif  // DOCS_PERFBENCH_LAYERS_H_
