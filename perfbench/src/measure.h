#ifndef DOCS_PERFBENCH_MEASURE_H_
#define DOCS_PERFBENCH_MEASURE_H_

// Measurement plumbing shared by the benchmark's passes: latency series with
// honest percentiles, the span recorder behind --trace 1, and the metric
// sink that renders the final report line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::micro>(stop - start).count();
}
inline double SecondsSince(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

/// One percentile read off a sample: the value, the sample count, and how
/// many samples lie strictly beyond the rank. A percentile with fewer than
/// kMinBeyond samples beyond it is unsupported and must not be reported as
/// a number.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
  static constexpr size_t kMinBeyond = 10;
  bool supported(double p) const {
    return samples > 0 && (p <= 0.5 || beyond >= kMinBeyond);
  }
};

/// Nearest-rank percentile (the smallest sample with at least p of the
/// sample at or below it). `sorted` must be ascending.
inline Quantile QuantileOf(const std::vector<double>& sorted, double p) {
  Quantile q;
  q.samples = sorted.size();
  if (sorted.empty()) return q;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  q.value = sorted[rank - 1];
  q.beyond = sorted.size() - rank;
  return q;
}

inline Quantile QuantileOfUnsorted(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return QuantileOf(values, p);
}

inline double Median(std::vector<double> values) {
  return QuantileOfUnsorted(std::move(values), 0.5).value;
}

/// One recorded span: a call into one layer, timed at the benchmark's side
/// of the boundary. Spans of one wire operation share `request`.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread span buffer; nullptr buffers make every ScopedSpan a no-op, so
/// untraced passes pay one branch per call site.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint64_t thread_slot)
      : next_id_((thread_slot + 1) << 40) {}

  uint64_t Open(const char* name, uint64_t parent, uint64_t request) {
    Span span;
    span.name = name;
    span.id = ++next_id_;
    span.parent = parent;
    span.request = request;
    span.start_ns = Now();
    spans_.push_back(span);
    return span.id;
  }
  void Close(uint64_t id) {
    // Spans close in LIFO order within a thread; search from the back.
    for (size_t i = spans_.size(); i > 0; --i) {
      if (spans_[i - 1].id == id) {
        spans_[i - 1].end_ns = Now();
        return;
      }
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : buffer_(buffer),
        id_(buffer != nullptr ? buffer->Open(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  uint64_t id_;
};

/// Named metrics with units, in insertion order, plus the human-readable
/// notes (sample counts) printed above the report line.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    order_.push_back(name);
    metrics_[name] = {value, unit, note};
  }
  /// A latency percentile: reported only when the sample supports it.
  /// Returns false (and records nothing) otherwise.
  bool AddQuantile(const std::string& name, const Quantile& q, double p,
                   const std::string& unit) {
    if (!q.supported(p)) {
      unsupported_.push_back(name + " (n=" + std::to_string(q.samples) +
                             ", " + std::to_string(q.beyond) + " beyond)");
      return false;
    }
    Add(name, q.value, unit,
        "n=" + std::to_string(q.samples) + ", " + std::to_string(q.beyond) +
            " beyond");
    return true;
  }

  const std::vector<std::string>& unsupported() const { return unsupported_; }
  std::string Table() const;
  std::string Json() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> unsupported_;
};

/// Peak resident set (VmHWM) of this process, in MiB; 0 when unreadable.
double PeakRssMb();

}  // namespace perfbench

#endif  // DOCS_PERFBENCH_MEASURE_H_
