#include "storage/answer_wal.h"

#include <cerrno>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_utils.h"

namespace docs::storage {
namespace {

std::string ToHex(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() * 2);
  AppendHex(raw, &out);
  return out;
}

/// Appends the payload `dedup <request_id> <CODE_NAME> <hex(worker_id)>`.
void AppendDedupPayload(const std::string& worker_id, uint64_t request_id,
                        StatusCode code, std::string* out) {
  out->append("dedup ");
  out->append(std::to_string(request_id));
  out->push_back(' ');
  out->append(StatusCodeToString(code));
  out->push_back(' ');
  AppendHex(worker_id, out);
}

/// Splits on single spaces, keeping empty fields: the empty worker id's hex
/// is the empty last field of its record (`reg `, `ans 1 2 0 `).
std::vector<std::string> SplitFields(const std::string& payload) {
  std::vector<std::string> fields;
  size_t begin = 0;
  for (size_t space = payload.find(' '); space != std::string::npos;
       space = payload.find(' ', begin)) {
    fields.push_back(payload.substr(begin, space - begin));
    begin = space + 1;
  }
  fields.push_back(payload.substr(begin));
  return fields;
}

bool ParseU64(const std::string& field, uint64_t* value) {
  if (field.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(field.c_str(), &end, 10);
  if (errno != 0 || end != field.c_str() + field.size()) return false;
  *value = parsed;
  return true;
}

std::string SerializeRecord(const AnswerWal::Record& record) {
  using Kind = AnswerWal::Record::Kind;
  switch (record.kind) {
    case Kind::kRegister:
      return "reg " + ToHex(record.worker_id);
    case Kind::kAnswer:
      return "ans " + std::to_string(record.request_id) + ' ' +
             std::to_string(record.task) + ' ' +
             std::to_string(record.choice) + ' ' + ToHex(record.worker_id);
    case Kind::kDedup: {
      std::string payload;
      AppendDedupPayload(record.worker_id, record.request_id, record.code,
                         &payload);
      return payload;
    }
  }
  return "";
}

bool ParseWalRecord(const std::string& payload, AnswerWal::Record* record) {
  using Kind = AnswerWal::Record::Kind;
  const std::vector<std::string> fields = SplitFields(payload);
  if (fields[0] == "reg") {
    if (fields.size() != 2) return false;
    record->kind = Kind::kRegister;
    return ParseHex(fields[1], &record->worker_id);
  }
  if (fields[0] == "ans") {
    uint64_t choice = 0;
    if (fields.size() != 5 || !ParseU64(fields[1], &record->request_id) ||
        !ParseU64(fields[2], &record->task) || !ParseU64(fields[3], &choice) ||
        choice > UINT32_MAX) {
      return false;
    }
    record->kind = Kind::kAnswer;
    record->choice = static_cast<uint32_t>(choice);
    return ParseHex(fields[4], &record->worker_id);
  }
  if (fields[0] == "dedup") {
    if (fields.size() != 4 || !ParseU64(fields[1], &record->request_id)) {
      return false;
    }
    const std::optional<StatusCode> code = StatusCodeFromString(fields[2]);
    if (!code.has_value()) return false;
    record->kind = Kind::kDedup;
    record->code = *code;
    return ParseHex(fields[3], &record->worker_id);
  }
  return false;
}

}  // namespace

StatusOr<AnswerWal> AnswerWal::Open(const std::string& path,
                                    Contents* contents) {
  if (DOCS_FAULT_POINT(kFaultWalReplay)) {
    return IoError("injected wal replay failure: " + path);
  }
  Contents discarded;
  if (contents == nullptr) contents = &discarded;
  contents->records.clear();
  contents->tail_truncated = false;

  std::string mirror;
  std::string bad_payload;
  auto replay = [&](const std::string& payload) {
    if (!bad_payload.empty()) return;
    Record record;
    if (!ParseWalRecord(payload, &record)) {
      bad_payload = payload;
      return;
    }
    mirror.append(payload).push_back('\n');
    contents->records.push_back(std::move(record));
  };
  bool torn = false;
  StatusOr<LogStore> store = LogStore::Open(path, replay, &torn);
  if (!store.ok()) return store.status();
  if (!bad_payload.empty()) {
    // Checksum-valid but unparseable: not a torn write (the checksum
    // matched), so this is corruption or a version skew — refuse to guess.
    return DataLossError("unparseable WAL record in " + path + ": " +
                         bad_payload);
  }
  // A (worker, request_id) pair may appear at most once across ans + dedup
  // records; a duplicate means an answer was double-logged.
  std::set<std::pair<std::string, uint64_t>> seen;
  for (const Record& record : contents->records) {
    if (record.kind == Record::Kind::kRegister || record.request_id == 0) {
      continue;
    }
    if (!seen.emplace(record.worker_id, record.request_id).second) {
      return DataLossError("duplicate request_id " +
                           std::to_string(record.request_id) +
                           " for worker in " + path);
    }
  }
  AnswerWal wal(std::move(store).value());
  wal.mirror_ = std::move(mirror);
  if (torn) {
    // Scrub the torn bytes now: appending on top of them would fuse the
    // torn prefix with the next record and lose both.
    Status repaired = wal.store_.CompactLines(wal.mirror_);
    if (!repaired.ok()) return repaired;
    contents->tail_truncated = true;
  }
  return wal;
}

Status AnswerWal::AppendRegistration(const std::string& worker_id) {
  Record record;
  record.kind = Record::Kind::kRegister;
  record.worker_id = worker_id;
  return AppendPayload(SerializeRecord(record));
}

Status AnswerWal::AppendAnswer(const std::string& worker_id,
                               uint64_t request_id, uint64_t task,
                               uint32_t choice) {
  if (DOCS_FAULT_POINT(kFaultWalAppend)) {
    return IoError("injected wal append failure: " + path());
  }
  Record record;
  record.kind = Record::Kind::kAnswer;
  record.worker_id = worker_id;
  record.request_id = request_id;
  record.task = task;
  record.choice = choice;
  return AppendPayload(SerializeRecord(record));
}

Status AnswerWal::AppendPayload(const std::string& payload) {
  if (tail_dirty_) {
    // An earlier failure left bytes past the mirror that a repair could not
    // scrub. Appending on top would fuse with them and corrupt both records,
    // so retry the scrub first and refuse the append while it keeps failing.
    Status repaired = store_.CompactLines(mirror_);
    if (!repaired.ok()) {
      return UnavailableError("answer log tail dirty: " + repaired.ToString());
    }
    tail_dirty_ = false;
  }
  Status appended = store_.Append(payload);
  if (!appended.ok()) {
    // The failed append may have left a torn half-record; rewrite the log
    // from the known-good mirror and try once more.
    Status repaired = store_.CompactLines(mirror_);
    if (!repaired.ok()) {
      tail_dirty_ = true;
      return appended;
    }
    appended = store_.Append(payload);
    if (!appended.ok()) {
      if (!store_.CompactLines(mirror_).ok()) tail_dirty_ = true;
      return appended;
    }
  }
  Status flushed = store_.Flush();
  if (!flushed.ok()) {
    // The record reached the stream but its durability is unknown, and the
    // caller records no dedup entry for a failed append — so a retry with
    // the same request_id will re-log it. Physically roll the record back
    // (Open rejects duplicate (worker, request_id) pairs as kDataLoss).
    if (!store_.CompactLines(mirror_).ok()) tail_dirty_ = true;
    return flushed;
  }
  mirror_.append(payload).push_back('\n');
  return OkStatus();
}

Status AnswerWal::ResetTo(
    const std::function<void(const DedupSink&)>& window) {
  // The new log is written straight from the window; the new mirror is
  // built only once that succeeded, after the old one is released, so the
  // two never coexist (on failure the old log and mirror stay as they
  // were).
  size_t bytes = 0;
  std::string payload;
  Status compacted = store_.CompactWith([&](const LogStore::PayloadSink& emit) {
    window([&](const std::string& worker_id, uint64_t request_id,
               StatusCode code) {
      if (request_id == 0) return;  // never a dedup key
      payload.clear();
      AppendDedupPayload(worker_id, request_id, code, &payload);
      emit(payload);
      bytes += payload.size() + 1;
    });
  });
  if (!compacted.ok()) return compacted;
  std::string().swap(mirror_);
  mirror_.reserve(bytes);
  window([this](const std::string& worker_id, uint64_t request_id,
                StatusCode code) {
    if (request_id == 0) return;
    AppendDedupPayload(worker_id, request_id, code, &mirror_);
    mirror_.push_back('\n');
  });
  return OkStatus();
}

}  // namespace docs::storage
