#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing of the session-level benchmark: percentiles under
// the sample-support rule, a log-linear latency histogram, heap metering,
// an order-insensitive result fingerprint, closing-event attribution and
// the span recorder of traced runs. Everything here is independent of the
// workloads, so selftest.cc pins it down in isolation.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/event.h"

namespace perfbench {

using fw::TimeT;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Percentiles.

/// A percentile is reported only where the sample supports it: the
/// highest quantile <= q that still has at least kTailSamples samples
/// beyond it (nearest-rank), and never below the median. With n samples
/// the cap is 1 - kTailSamples / n, so p99 needs 1000 samples.
inline constexpr uint64_t kTailSamples = 10;
double SupportedQuantile(double q, uint64_t n);

/// Nearest-rank value at SupportedQuantile(q, samples.size()); 0 when
/// empty. Sorts a copy.
double Percentile(std::vector<double> samples, double q);

/// Median of a sample (nearest-rank, lower middle for even counts).
inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}

/// Log-linear histogram of non-negative integer samples (nanoseconds):
/// 64 sub-buckets per power of two, so a reported percentile is within
/// 1/64 of the true sample value (interpolated by rank inside its
/// bucket, so nearby runs do not read the same bucket value). Constant
/// memory for the millions of per-call and per-result samples a run
/// takes.
class LogHistogram {
 public:
  LogHistogram();
  void Add(uint64_t value);
  void Merge(const LogHistogram& other);
  uint64_t count() const { return count_; }
  /// Value at SupportedQuantile(q, count()); 0 when empty.
  double Percentile(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static size_t BucketOf(uint64_t value);
  /// Smallest value of `bucket`; its width (values it holds) in *width.
  static double BucketLow(size_t bucket, double* width);
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Heap metering (heap_meter.cc replaces the global allocation operators).

int64_t HeapLiveBytes();
int64_t HeapPeakBytes();
/// Restarts the peak at the current live byte count.
void ResetHeapPeak();
/// Peak heap growth over `baseline_bytes` in MiB (never negative): the
/// pre-generated input lives below the baseline, so it is excluded.
double PeakMiBAbove(int64_t peak_bytes, int64_t baseline_bytes);

// ---------------------------------------------------------------------------
// Result fingerprint.

/// Order-insensitive exact fingerprint of a delivered result multiset,
/// the idea of ResultFingerprint in bench/bench_util.h with two changes:
/// the query slot is part of each result (two queries sharing a window
/// deliver equal results), and per-result hashes are summed rather than
/// XORed, so a duplicated result changes the fingerprint instead of
/// cancelling out. A mixing hash replaces per-byte FNV-1a so the check
/// stays cheap at millions of results per second.
struct Fingerprint {
  uint64_t results = 0;
  uint64_t sum = 0;

  void Fold(uint32_t query_slot, const fw::WindowResult& r);
  bool operator==(const Fingerprint& other) const {
    return results == other.results && sum == other.sum;
  }
  bool operator!=(const Fingerprint& other) const { return !(*this == other); }
};

// ---------------------------------------------------------------------------
// Closing-event attribution.

/// No event closes the window (its end lies beyond the final watermark:
/// Finish closes it).
inline constexpr uint32_t kNoClosingEvent = UINT32_MAX;

/// For every window end e in [0, final watermark], the index of the
/// closing event: the first event, in arrival order, after which the
/// watermark reaches e. The watermark is the newest timestamp seen minus
/// max_delay (the session's definition); an instance [start, end) is
/// closed once the watermark reaches `end`. Linear in events + time span.
class ClosingIndex {
 public:
  ClosingIndex(const std::vector<TimeT>& arrival_timestamps, TimeT max_delay);
  /// Closing event index of a window ending at `end`, or kNoClosingEvent.
  uint32_t Of(TimeT end) const {
    if (end < 0) return 0;
    const uint64_t e = static_cast<uint64_t>(end);
    return e < table_.size() ? table_[e] : kNoClosingEvent;
  }

 private:
  std::vector<uint32_t> table_;
};

/// Reference definition of ClosingIndex::Of by a scan from the first
/// event (quadratic; tests only).
uint32_t BruteForceClosingEvent(const std::vector<TimeT>& arrival_timestamps,
                                TimeT max_delay, TimeT end);

// ---------------------------------------------------------------------------
// Tracing.

/// Spans of a traced run: (name, start, end, parent) around each call the
/// benchmark makes into a module. Kept in memory up to a cap (later spans
/// are counted as dropped) and written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }
  /// Opens a span; returns its id (>= 1), or 0 when the cap is reached.
  uint32_t Open(const char* name, uint32_t parent) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{name, parent, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void Close(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = NowNs();
  }
  /// Records a span whose times were already taken.
  uint32_t Add(const char* name, uint32_t parent, uint64_t start_ns,
               uint64_t end_ns) {
    const uint32_t id = Open(name, parent);
    if (id != 0) {
      spans_[id - 1].start_ns = start_ns;
      spans_[id - 1].end_ns = end_ns;
    }
    return id;
  }
  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  /// Writes "id,parent,name,start_ns,end_ns" lines; false on I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span; a null tracer records nothing (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t parent)
      : tracer_(tracer), id_(tracer ? tracer->Open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
