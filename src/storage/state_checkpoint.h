#ifndef DOCS_STORAGE_STATE_CHECKPOINT_H_
#define DOCS_STORAGE_STATE_CHECKPOINT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace docs::storage {

/// Fault point evaluated at the top of SaveStateCheckpoint: an injected
/// failure rejects the save before any byte is written (the on-disk
/// checkpoint keeps its previous contents). LogStore's compaction fault
/// points additionally cover mid-write and pre-rename crashes of a save.
inline constexpr char kFaultCheckpointSave[] = "checkpoint.save";

/// A durable snapshot of a running crowdsourcing session — the "database"
/// side of Figure 1 for tasks. It captures everything needed to resume
/// after a crash or restart: the tasks' domain vectors and choice counts,
/// the requester-known truths (for golden grading), the golden task set,
/// the registered workers with their seed profiles, and every received
/// answer in arrival order. All derived inference state (M̂, M, s, current
/// qualities) is rebuilt by replaying the answers.
struct StateCheckpoint {
  struct TaskState {
    std::vector<double> domain_vector;
    size_t num_choices = 2;
    int known_truth = -1;  ///< -1 when the requester does not know it
  };
  struct WorkerState {
    std::string external_id;
    std::vector<double> seed_quality;
    std::vector<double> seed_weight;
    bool golden_done = false;
  };
  struct AnswerRecord {
    size_t task = 0;
    size_t worker = 0;
    size_t choice = 0;
  };

  std::vector<TaskState> tasks;
  std::vector<size_t> golden_tasks;
  std::vector<WorkerState> workers;
  std::vector<AnswerRecord> answers;
};

/// Writes the checkpoint atomically (temp file + rename, checksummed
/// records) without reading the file it replaces, so a corrupt previous
/// checkpoint never blocks a save. Accepts every worker id: ids with
/// whitespace (or empty) are stored hex-encoded.
[[nodiscard]] Status SaveStateCheckpoint(const StateCheckpoint& checkpoint,
                           const std::string& path);

/// Receives one answer record of a streamed save.
using AnswerRecordSink =
    std::function<void(const StateCheckpoint::AnswerRecord&)>;

/// As above, but the answers after `checkpoint.answers` come from
/// `more_answers`, which passes each record to the sink it is given as the
/// file is written: a caller that holds the answers in another form saves
/// them without first copying every one into the checkpoint.
[[nodiscard]] Status SaveStateCheckpoint(
    const StateCheckpoint& checkpoint,
    const std::function<void(const AnswerRecordSink&)>& more_answers,
    const std::string& path);

/// Reads a checkpoint; fails with DataLoss on structural corruption (a torn
/// tail of answer records is tolerated, mirroring LogStore semantics).
[[nodiscard]] StatusOr<StateCheckpoint> LoadStateCheckpoint(const std::string& path);

}  // namespace docs::storage

#endif  // DOCS_STORAGE_STATE_CHECKPOINT_H_
