#ifndef DOCS_CORE_TYPES_H_
#define DOCS_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace docs::core {

/// A crowdsourcing task as the inference modules see it (Definition 2): a
/// domain vector r^{t_i} over the m domains and the number of choices l_{t_i}.
struct Task {
  std::vector<double> domain_vector;
  size_t num_choices = 2;
};

/// One worker answer v^w_i (Definition 4). Choices are 0-based internally.
struct Answer {
  size_t task = 0;
  size_t worker = 0;
  size_t choice = 0;
};

/// One answer as a task's answer list V(i) holds it: the worker and her
/// choice. Eight bytes, so the stores that keep every answer stay small.
struct WorkerChoice {
  uint32_t worker = 0;
  uint32_t choice = 0;
};

/// One answer as a worker's answer list holds it: the task and her choice.
struct TaskChoice {
  uint32_t task = 0;
  uint32_t choice = 0;
};

/// Per-worker quality vector q^w plus the weights u^w of Section 4.2 (the
/// expected number of answered tasks related to each domain).
struct WorkerQuality {
  std::vector<double> quality;
  std::vector<double> weight;
};

}  // namespace docs::core

#endif  // DOCS_CORE_TYPES_H_
