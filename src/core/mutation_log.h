#ifndef DOCS_CORE_MUTATION_LOG_H_
#define DOCS_CORE_MUTATION_LOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace docs::core {

/// The engine's change feed for the benefit indexes (DESIGN.md §16): the
/// tasks whose posterior moved, at absolute, growing sequence numbers
/// [begin(), end()). Entries live in fixed-size segments held by pointer,
/// so a copy — what a snapshot publish takes — shares every segment and
/// costs one pointer per segment. The owner only ever writes slots past
/// every copy's end(), and a copy reads only below its own end(), so the
/// shared slots a copy can see never change.
class MutationLog {
 public:
  static constexpr size_t kSegmentSize = 256;
  /// Bound on the window: past this many entries a catching-up benefit
  /// index would approach the cost of a rebuild anyway, so the log is
  /// trimmed wholesale (begin() jumps to end()) and stragglers rebuild.
  static constexpr size_t kCapacity = 4096;

  uint64_t begin() const { return begin_; }
  uint64_t end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return end_ == begin_; }

  /// The task logged at sequence `seq`, begin() <= seq < end().
  size_t at(uint64_t seq) const {
    const uint64_t offset = seq - begin_;
    return segments_[offset / kSegmentSize]->tasks[offset % kSegmentSize];
  }

  /// The logged tasks in sequence order.
  std::vector<size_t> Tasks() const {
    std::vector<size_t> tasks;
    tasks.reserve(size());
    for (uint64_t seq = begin_; seq < end_; ++seq) tasks.push_back(at(seq));
    return tasks;
  }

  /// Logs `task` (a task index below 2^32). A full log is trimmed first.
  void Append(size_t task) {
    if (size() >= kCapacity) Clear();
    const size_t offset = size();
    if (offset % kSegmentSize == 0) {
      segments_.push_back(std::make_shared<Segment>());
    }
    segments_.back()->tasks[offset % kSegmentSize] =
        static_cast<uint32_t>(task);
    ++end_;
  }

  /// Drops every entry: begin() jumps to end(). Copies keep theirs.
  void Clear() {
    begin_ = end_;
    segments_.clear();
  }

 private:
  struct Segment {
    uint32_t tasks[kSegmentSize];
  };

  uint64_t begin_ = 0;
  uint64_t end_ = 0;
  /// Segment s holds sequences [begin_ + s * kSegmentSize, ...).
  std::vector<std::shared_ptr<Segment>> segments_;
};

}  // namespace docs::core

#endif  // DOCS_CORE_MUTATION_LOG_H_
