#include "storage/state_checkpoint.h"

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>

#include "common/fault_injection.h"
#include "common/string_utils.h"
#include "storage/log_store.h"

namespace docs::storage {
namespace {

// Record kinds, one per payload line. Tasks/workers/answers may interleave
// in any order on disk; indices bind them together.
//   task <index> <known_truth> <num_choices> <m> r0 .. r{m-1}
//   golden <task_index>
//   worker <index> <external_id> <golden_done> <m> q0.. u0..
//   worker_hex <index> 0x<hex(external_id)> <golden_done> <m> q0.. u0..
//   answer <task> <worker> <choice>
// An id that a space-separated field cannot hold (empty, or with any
// whitespace byte) is written as worker_hex, hex-encoded like the answer
// WAL's ids behind a "0x" that keeps even the empty id a non-empty field;
// every other id is written verbatim, so files without such ids read and
// write byte-identically to earlier builds.

// Each payload is formatted with std::to_chars into one reused string and
// written as it is made (LogStore::CompactWith): a stream per record made
// formatting most of a checkpoint's cost, and a list of every payload held
// the whole file in memory. Doubles are written as %.17g, which
// round-trips exactly and is the text earlier builds wrote (a stream at
// precision 17), so old and new checkpoints read alike.

void AppendField(double value, std::string* out) {
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                 std::chars_format::general, 17)
                       .ptr;
  out->push_back(' ');
  out->append(buffer, end);
}

template <typename Int>
void AppendField(Int value, std::string* out) {
  char buffer[24];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out->push_back(' ');
  out->append(buffer, end);
}

void FormatTask(size_t index, const StateCheckpoint::TaskState& t,
                std::string* out) {
  *out = "task";
  AppendField(index, out);
  AppendField(t.known_truth, out);
  AppendField(t.num_choices, out);
  AppendField(t.domain_vector.size(), out);
  for (double r : t.domain_vector) AppendField(r, out);
}

bool NeedsHex(const std::string& id) {
  return id.empty() ||
         id.find_first_of(" \t\n\v\f\r") != std::string::npos;
}

void FormatWorker(size_t index, const StateCheckpoint::WorkerState& w,
                  std::string* out) {
  const bool hex = NeedsHex(w.external_id);
  *out = hex ? "worker_hex" : "worker";
  AppendField(index, out);
  out->push_back(' ');
  if (hex) {
    out->append("0x");
    AppendHex(w.external_id, out);
  } else {
    out->append(w.external_id);
  }
  AppendField(w.golden_done ? 1 : 0, out);
  AppendField(w.seed_quality.size(), out);
  for (double q : w.seed_quality) AppendField(q, out);
  for (double u : w.seed_weight) AppendField(u, out);
}

}  // namespace

Status SaveStateCheckpoint(const StateCheckpoint& checkpoint,
                           const std::string& path) {
  return SaveStateCheckpoint(checkpoint, nullptr, path);
}

Status SaveStateCheckpoint(
    const StateCheckpoint& checkpoint,
    const std::function<void(const AnswerRecordSink&)>& more_answers,
    const std::string& path) {
  if (DOCS_FAULT_POINT(kFaultCheckpointSave)) {
    // Fails before anything is written: the previous checkpoint (if any)
    // stays intact, which is what retry-with-backoff relies on.
    return IoError("injected checkpoint save failure: " + path);
  }
  // Written straight to a temp file and renamed over the old checkpoint,
  // which is never opened: reading it first cost a full parse and checksum
  // pass, and a corrupt old file would fail every later save.
  auto records = [&](const LogStore::PayloadSink& emit) {
    std::string payload;
    for (size_t i = 0; i < checkpoint.tasks.size(); ++i) {
      FormatTask(i, checkpoint.tasks[i], &payload);
      emit(payload);
    }
    for (size_t g : checkpoint.golden_tasks) {
      payload = "golden";
      AppendField(g, &payload);
      emit(payload);
    }
    for (size_t w = 0; w < checkpoint.workers.size(); ++w) {
      FormatWorker(w, checkpoint.workers[w], &payload);
      emit(payload);
    }
    auto emit_answer = [&](const StateCheckpoint::AnswerRecord& answer) {
      payload = "answer";
      AppendField(answer.task, &payload);
      AppendField(answer.worker, &payload);
      AppendField(answer.choice, &payload);
      emit(payload);
    };
    for (const auto& answer : checkpoint.answers) emit_answer(answer);
    if (more_answers) more_answers(emit_answer);
  };
  return LogStore::WriteFile(path, records).status();
}

StatusOr<StateCheckpoint> LoadStateCheckpoint(const std::string& path) {
  StateCheckpoint checkpoint;
  bool corrupt = false;
  auto log = LogStore::Open(path, [&](const std::string& payload) {
    std::istringstream fields(payload);
    std::string kind;
    fields >> kind;
    if (kind == "task") {
      size_t index = 0, num_choices = 0, m = 0;
      int truth = -1;
      if (!(fields >> index >> truth >> num_choices >> m)) {
        corrupt = true;
        return;
      }
      if (checkpoint.tasks.size() <= index) {
        checkpoint.tasks.resize(index + 1);
      }
      auto& task = checkpoint.tasks[index];
      task.known_truth = truth;
      task.num_choices = num_choices;
      task.domain_vector.resize(m);
      for (auto& r : task.domain_vector) {
        if (!(fields >> r)) {
          corrupt = true;
          return;
        }
      }
    } else if (kind == "golden") {
      size_t index = 0;
      if (!(fields >> index)) {
        corrupt = true;
        return;
      }
      checkpoint.golden_tasks.push_back(index);
    } else if (kind == "worker" || kind == "worker_hex") {
      size_t index = 0, m = 0;
      std::string id;
      int golden_done = 0;
      if (!(fields >> index >> id >> golden_done >> m)) {
        corrupt = true;
        return;
      }
      if (kind == "worker_hex") {
        std::string raw;
        if (!StartsWith(id, "0x") ||
            !ParseHex(std::string_view(id).substr(2), &raw)) {
          corrupt = true;
          return;
        }
        id = std::move(raw);
      }
      if (checkpoint.workers.size() <= index) {
        checkpoint.workers.resize(index + 1);
      }
      auto& worker = checkpoint.workers[index];
      worker.external_id = std::move(id);
      worker.golden_done = golden_done != 0;
      worker.seed_quality.resize(m);
      worker.seed_weight.resize(m);
      for (auto& q : worker.seed_quality) {
        if (!(fields >> q)) {
          corrupt = true;
          return;
        }
      }
      for (auto& u : worker.seed_weight) {
        if (!(fields >> u)) {
          corrupt = true;
          return;
        }
      }
    } else if (kind == "answer") {
      StateCheckpoint::AnswerRecord answer;
      if (!(fields >> answer.task >> answer.worker >> answer.choice)) {
        corrupt = true;
        return;
      }
      checkpoint.answers.push_back(answer);
    } else {
      corrupt = true;
    }
  });
  if (!log.ok()) return log.status();
  if (corrupt) return DataLossError("malformed checkpoint record: " + path);
  // Structural validation: every answer must reference known entities.
  for (const auto& answer : checkpoint.answers) {
    if (answer.task >= checkpoint.tasks.size() ||
        answer.worker >= checkpoint.workers.size() ||
        answer.choice >= checkpoint.tasks[answer.task].num_choices) {
      return DataLossError("dangling reference in checkpoint: " + path);
    }
  }
  for (size_t g : checkpoint.golden_tasks) {
    if (g >= checkpoint.tasks.size()) {
      return DataLossError("dangling golden task in checkpoint: " + path);
    }
  }
  return checkpoint;
}

}  // namespace docs::storage
