#ifndef DOCS_STORAGE_ANSWER_WAL_H_
#define DOCS_STORAGE_ANSWER_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/log_store.h"

namespace docs::storage {

/// Fault points for the answer write-ahead log. `wal/append` fails an
/// AppendAnswer cleanly before any byte reaches the file (the submit is
/// rejected as retryable and state is untouched); `wal/replay` fails Open,
/// modelling an unreadable WAL discovered during recovery.
inline constexpr char kFaultWalAppend[] = "wal/append";
inline constexpr char kFaultWalReplay[] = "wal/replay";

/// Write-ahead log of crowd answers for exactly-once serving (DESIGN.md
/// §12). Sits on a LogStore; each record is one of three line payloads:
///
///   reg <hex(worker_id)>                          worker first contact
///   ans <request_id> <task> <choice> <hex(worker_id)>   accepted submit
///   dedup <request_id> <CODE_NAME> <hex(worker_id)>     dedup-window carry
///
/// `reg` records preserve worker *registration order*, which fixes the
/// worker-index assignment and therefore the float summation order of
/// inference — required for bit-identical recovery. `ans` records are
/// logged before the answer is applied. `dedup` records appear only after a
/// checkpoint truncation: they carry the still-live dedup window (request_id
/// → apply status, by name) so a retry of an already-checkpointed submit is
/// still acknowledged idempotently. Worker ids are hex-encoded because
/// LogStore payloads are line-oriented and external ids may contain spaces
/// or newlines.
///
/// Open() is self-healing: a torn tail (crash mid-append) is detected via
/// LogStore and physically compacted away so later appends cannot fuse with
/// the torn bytes. Checksum-valid records that fail to parse, and duplicate
/// (worker, request_id) pairs, are data corruption — Open fails with
/// kDataLoss rather than guessing.
///
/// Thread-compatible, not thread-safe: every cross-thread use goes through
/// DurableDocsSystem, whose mutex guards the owning pointer (see the
/// DOCS_PT_GUARDED_BY annotation there). Adding a mutex here would only
/// duplicate that guard.
class AnswerWal {
 public:
  struct Record {
    enum class Kind { kRegister, kAnswer, kDedup };
    Kind kind = Kind::kAnswer;
    std::string worker_id;            ///< decoded external id
    uint64_t request_id = 0;          ///< ans/dedup; 0 = no dedup key
    uint64_t task = 0;                ///< ans only
    uint32_t choice = 0;              ///< ans only
    StatusCode code = StatusCode::kOk;  ///< dedup only: recorded apply status
  };

  struct Contents {
    std::vector<Record> records;  ///< valid records in append order
    bool tail_truncated = false;  ///< a torn tail was dropped (and repaired)
  };

  /// Opens (creating if needed) the WAL at `path`, filling `*contents` with
  /// every valid record (`contents` may be null: the records are validated
  /// and dropped). If the file ended in a torn record the tail is compacted
  /// away before returning, so the WAL is always append-safe.
  [[nodiscard]] static StatusOr<AnswerWal> Open(const std::string& path,
                                                Contents* contents);

  AnswerWal(AnswerWal&&) noexcept = default;
  AnswerWal& operator=(AnswerWal&&) noexcept = default;

  const std::string& path() const { return store_.path(); }
  size_t record_count() const { return store_.record_count(); }

  /// Durably logs a worker's first contact. Flushes before returning.
  [[nodiscard]] Status AppendRegistration(const std::string& worker_id);

  /// Durably logs one submitted answer. Flushes before returning: once this
  /// is OK the answer survives a crash. On failure nothing is logged as far
  /// as callers are concerned — a torn append is compacted back to the valid
  /// prefix and retried once, and a record whose flush failed is physically
  /// rolled back so a same-request_id retry re-logs it instead of creating a
  /// duplicate. If even the repair compaction fails the tail is marked dirty
  /// and every later append returns kUnavailable (after re-attempting the
  /// scrub) until a compaction succeeds — appending onto unscrubbed bytes
  /// would fuse records and silently lose an acked answer.
  [[nodiscard]] Status AppendAnswer(const std::string& worker_id,
                                    uint64_t request_id, uint64_t task,
                                    uint32_t choice);

  /// Receives one dedup-window entry for ResetTo.
  using DedupSink = std::function<void(
      const std::string& worker_id, uint64_t request_id, StatusCode code)>;

  /// Post-checkpoint truncation: atomically replaces the log with only the
  /// dedup window, one `dedup` record per entry that `window` feeds its
  /// sink, in order (entries with request_id 0 are skipped). Answers up to
  /// the checkpoint are now owned by the checkpoint file; the dedup window
  /// must outlive them so in-flight retries still dedup. `window` is called
  /// twice and must feed the same entries both times (the first pass writes
  /// the new log, the second rebuilds the in-memory mirror).
  [[nodiscard]] Status ResetTo(
      const std::function<void(const DedupSink&)>& window);

 private:
  explicit AnswerWal(LogStore store) : store_(std::move(store)) {}

  [[nodiscard]] Status AppendPayload(const std::string& payload);

  LogStore store_;
  /// Mirror of every payload physically in the log, in order, each ended by
  /// '\n' (payloads never hold one) — the compact set for torn-tail
  /// self-repair, kept in one buffer rather than one string per record.
  std::string mirror_;
  /// True while the file may hold bytes past the mirror (a failed append or
  /// rollback whose repair compaction also failed). Appends are refused
  /// until a compaction scrubs the tail.
  bool tail_dirty_ = false;
};

}  // namespace docs::storage

#endif  // DOCS_STORAGE_ANSWER_WAL_H_
