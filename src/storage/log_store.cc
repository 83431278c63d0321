#include "storage/log_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/fault_injection.h"
#include "common/string_utils.h"

namespace docs::storage {
namespace {

uint64_t Fnv1a(std::string_view payload) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : payload) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Parses one log line; returns true and sets `payload` when the line is a
// well-formed, checksum-valid record.
bool ParseRecord(const std::string& line, std::string* payload) {
  if (!StartsWith(line, "PUT ")) return false;
  const size_t hash_pos = line.rfind(" #");
  if (hash_pos == std::string::npos || hash_pos < 4) return false;
  uint64_t stored = 0;
  if (std::sscanf(line.c_str() + hash_pos + 2, "%" SCNu64, &stored) != 1) {
    return false;
  }
  std::string body = line.substr(4, hash_pos - 4);
  if (Fnv1a(body) != stored) return false;
  *payload = std::move(body);
  return true;
}

void WriteRecord(std::ostream& out, std::string_view payload) {
  out << "PUT " << payload << " #" << Fnv1a(payload) << '\n';
}

}  // namespace

struct LogStore::FileState {
  std::ofstream out;
};

LogStore::LogStore(std::string path) : path_(std::move(path)) {}
LogStore::LogStore(LogStore&&) noexcept = default;
LogStore& LogStore::operator=(LogStore&&) noexcept = default;
LogStore::~LogStore() = default;

StatusOr<LogStore> LogStore::Open(
    const std::string& path,
    const std::function<void(const std::string& payload)>& replay,
    bool* tail_truncated) {
  if (tail_truncated) *tail_truncated = false;
  LogStore store(path);
  std::ifstream in(path, std::ios::binary);
  if (in.is_open()) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::string payload;
      if (!ParseRecord(line, &payload)) {
        // A torn write can only damage the end of the file. If any
        // checksum-valid record follows this line, the damage is mid-file
        // corruption (bit rot, partial overwrite); truncating here would
        // silently drop the valid records after it, so refuse to guess.
        std::string later;
        while (std::getline(in, line)) {
          if (!line.empty() && ParseRecord(line, &later)) {
            return DataLossError("corrupt record followed by valid records: " +
                                 path);
          }
        }
        if (tail_truncated) *tail_truncated = true;  // torn/corrupt tail
        break;
      }
      if (replay) replay(payload);
      ++store.record_count_;
    }
    if (tail_truncated && !*tail_truncated) {
      // Every line parsed, but a file not ending in '\n' means the last
      // record's newline was torn off: the next append would fuse with it.
      in.clear();
      in.seekg(0, std::ios::end);
      if (in.tellg() > std::streamoff(0)) {
        in.seekg(-1, std::ios::end);
        char last = '\0';
        if (in.get(last) && last != '\n') *tail_truncated = true;
      }
    }
  }
  store.file_ = std::make_unique<FileState>();
  store.file_->out.open(path, std::ios::app);
  if (!store.file_->out.is_open()) {
    return IoError("cannot open log: " + path);
  }
  return store;
}

Status LogStore::Append(const std::string& payload) {
  if (payload.find('\n') != std::string::npos) {
    return InvalidArgumentError("payload must not contain newlines");
  }
  if (DOCS_FAULT_POINT(kFaultAppend)) {
    // Simulate a crash mid-append: only a prefix of the record reaches the
    // file (no checksum, no newline), exactly what a torn write leaves.
    const std::string record =
        "PUT " + payload + " #" + std::to_string(Fnv1a(payload)) + '\n';
    file_->out << record.substr(0, record.size() / 2);
    file_->out.flush();
    return IoError("injected torn append: " + path_);
  }
  WriteRecord(file_->out, payload);
  if (!file_->out.good()) return IoError("append failed: " + path_);
  ++record_count_;
  return OkStatus();
}

Status LogStore::Compact(const std::vector<std::string>& payloads) {
  return CompactWith([&](const PayloadSink& emit) {
    for (const auto& payload : payloads) emit(payload);
  });
}

Status LogStore::CompactLines(std::string_view lines) {
  return CompactWith([&](const PayloadSink& emit) {
    for (size_t begin = 0; begin < lines.size();) {
      // A final line missing its '\n' still counts as a record.
      const size_t end = std::min(lines.find('\n', begin), lines.size());
      emit(lines.substr(begin, end - begin));
      begin = end + 1;
    }
  });
}

Status LogStore::CompactWith(
    const std::function<void(const PayloadSink&)>& records) {
  file_->out.close();
  // On failure the original log is untouched; reopening it for append keeps
  // the store usable so a later retry can run.
  StatusOr<size_t> written = WriteFile(path_, records);
  file_->out.open(path_, std::ios::app);
  if (!written.ok()) return written.status();
  record_count_ = *written;
  if (!file_->out.is_open()) return IoError("cannot reopen " + path_);
  return OkStatus();
}

StatusOr<size_t> LogStore::WriteFile(
    const std::string& path,
    const std::function<void(const PayloadSink&)>& records) {
  const std::string tmp = path + ".compact";
  size_t record_count = 0;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return IoError("cannot open " + tmp);
    records([&](std::string_view payload) {
      WriteRecord(out, payload);
      ++record_count;
    });
    if (DOCS_FAULT_POINT(kFaultCompactWrite)) {
      return IoError("injected compaction write failure: " + path);
    }
    if (!out.good()) return IoError("compaction write failed");
  }
  if (DOCS_FAULT_POINT(kFaultCompactRename)) {
    // Crash before the rename: the fully written temp file is orphaned, the
    // live file keeps its old contents — the atomicity contract under test.
    return IoError("injected crash before compaction rename: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return IoError("compaction rename failed");
  }
  return record_count;
}

Status LogStore::Flush() {
  if (DOCS_FAULT_POINT(kFaultFlush)) {
    return IoError("injected flush failure: " + path_);
  }
  file_->out.flush();
  if (!file_->out.good()) return IoError("flush failed: " + path_);
  return OkStatus();
}

}  // namespace docs::storage
