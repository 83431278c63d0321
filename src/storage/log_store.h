#ifndef DOCS_STORAGE_LOG_STORE_H_
#define DOCS_STORAGE_LOG_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace docs::storage {

/// Fault points threaded through LogStore's file I/O (see
/// common/fault_injection.h). Tests arm these to force torn appends, failed
/// flushes, and crash-before-rename compactions; production pays one atomic
/// load per call when nothing is armed.
inline constexpr char kFaultAppend[] = "log_store.append";
inline constexpr char kFaultFlush[] = "log_store.flush";
inline constexpr char kFaultCompactWrite[] = "log_store.compact_write";
inline constexpr char kFaultCompactRename[] = "log_store.compact_rename";

/// A crash-safe append-only record log: the storage primitive under
/// WorkerStore and the DOCS system-state checkpoints.
///
/// Each record is a single line `PUT <payload> #<fnv1a(payload)>`. A torn
/// or corrupt *tail* is dropped on replay, so everything before a crash
/// point is recovered; corruption strictly inside the file fails Open (see
/// below). Compact() rewrites the log atomically (write temp + rename) with
/// a caller-provided record set.
///
/// Thread-compatible, not thread-safe: owners (AnswerWal, WorkerStore, the
/// checkpoint writers) serialize access under their own locks, so this layer
/// stays lock-free and single-purpose.
class LogStore {
 public:
  /// Opens (creating if needed) the log at `path` and replays existing
  /// records through `replay` in append order. Payloads containing newlines
  /// are rejected at append time, so replay yields them verbatim.
  ///
  /// When `tail_truncated` is non-null it is set to true if the file held
  /// bytes past the last valid record (a torn or corrupt tail, or a final
  /// record missing its newline). Such a tail is dropped from replay but
  /// still sits in the file: appending on top of it would fuse the torn
  /// bytes with the next record and corrupt it, so callers that intend to
  /// append after a crash must Compact() first (AnswerWal does this).
  ///
  /// Only a trailing run of bad bytes is treated as a torn tail. A corrupt
  /// record with checksum-valid records after it cannot be a torn write —
  /// that is mid-file corruption, and Open fails with kDataLoss rather than
  /// silently dropping the valid records behind it.
  [[nodiscard]] static StatusOr<LogStore> Open(
      const std::string& path,
      const std::function<void(const std::string& payload)>& replay,
      bool* tail_truncated = nullptr);

  LogStore(LogStore&&) noexcept;
  LogStore& operator=(LogStore&&) noexcept;
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;
  ~LogStore();

  const std::string& path() const { return path_; }

  /// Number of records physically in the log (replayed + appended since
  /// open; reset by Compact()).
  size_t record_count() const { return record_count_; }

  /// Appends one payload with its checksum.
  [[nodiscard]] Status Append(const std::string& payload);

  /// Atomically replaces the log with exactly `payloads`.
  [[nodiscard]] Status Compact(const std::vector<std::string>& payloads);

  /// As Compact, with the payloads given as one buffer of '\n'-terminated
  /// lines (AnswerWal's contiguous mirror), so no per-record string exists.
  [[nodiscard]] Status CompactLines(std::string_view lines);

  /// Receives one payload for CompactWith.
  using PayloadSink = std::function<void(std::string_view payload)>;

  /// As Compact, with `records` feeding the payloads to its sink one at a
  /// time as they are written, so no list of them is ever held.
  [[nodiscard]] Status CompactWith(
      const std::function<void(const PayloadSink&)>& records);

  /// Atomically replaces the file at `path` with a log of exactly the
  /// payloads `records` feeds (write `<path>.compact`, then rename), without
  /// opening or reading what it replaces; returns the record count. On
  /// failure the file at `path` is untouched. Compact* and the checkpoint
  /// writer share it, and with it the kFaultCompactWrite/kFaultCompactRename
  /// fault points.
  [[nodiscard]] static StatusOr<size_t> WriteFile(
      const std::string& path,
      const std::function<void(const PayloadSink&)>& records);

  /// Flushes buffered appends to the OS.
  [[nodiscard]] Status Flush();

 private:
  explicit LogStore(std::string path);

  std::string path_;
  size_t record_count_ = 0;
  struct FileState;
  std::unique_ptr<FileState> file_;
};

}  // namespace docs::storage

#endif  // DOCS_STORAGE_LOG_STORE_H_
