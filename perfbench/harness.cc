#include "harness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace perfbench {

double SupportedQuantile(double q, uint64_t n) {
  if (n == 0) return q;
  const double cap =
      1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
  return std::max(0.5, std::min(q, cap));
}

namespace {

// Nearest-rank index (0-based) of quantile q among n sorted samples.
size_t RankIndex(double q, uint64_t n) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const uint64_t r = rank < 1.0 ? 1 : static_cast<uint64_t>(rank);
  return static_cast<size_t>(std::min(r, n) - 1);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t i = RankIndex(SupportedQuantile(q, samples.size()),
                             samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(i),
                   samples.end());
  return samples[i];
}

LogHistogram::LogHistogram() : buckets_(64 + 58 * 64, 0) {}

size_t LogHistogram::BucketOf(uint64_t value) {
  if (value < 64) return static_cast<size_t>(value);
  const int e = 63 - std::countl_zero(value);  // floor(log2), >= 6.
  const uint64_t sub = (value >> (e - kSubBits)) & 63;
  return 64 + static_cast<size_t>(e - kSubBits) * 64 + sub;
}

double LogHistogram::BucketLow(size_t bucket, double* width) {
  if (bucket < 64) {
    *width = 1.0;
    return static_cast<double>(bucket);
  }
  const size_t e = (bucket - 64) / 64;  // Exponent minus kSubBits.
  const uint64_t sub = (bucket - 64) % 64;
  *width = std::ldexp(1.0, static_cast<int>(e));
  return std::ldexp(static_cast<double>(64 + sub), static_cast<int>(e));
}

void LogHistogram::Add(uint64_t value) {
  ++buckets_[BucketOf(value)];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t target = RankIndex(SupportedQuantile(q, count_), count_) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (seen + buckets_[i] >= target) {
      // Spread the bucket's samples evenly over the integers it holds.
      double width = 0.0;
      const double low = BucketLow(i, &width);
      const double k = static_cast<double>(target - seen) - 0.5;
      return low + (width - 1.0) * k / static_cast<double>(buckets_[i]);
    }
    seen += buckets_[i];
  }
  return 0.0;  // Unreachable: the buckets hold count_ samples.
}

double PeakMiBAbove(int64_t peak_bytes, int64_t baseline_bytes) {
  const int64_t growth = std::max<int64_t>(0, peak_bytes - baseline_bytes);
  return static_cast<double>(growth) / (1024.0 * 1024.0);
}

namespace {

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

void Fingerprint::Fold(uint32_t query_slot, const fw::WindowResult& r) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(r.value));
  std::memcpy(&bits, &r.value, sizeof(bits));
  uint64_t h = Mix((static_cast<uint64_t>(query_slot) << 32) ^
                   static_cast<uint32_t>(r.operator_id));
  h = Mix(h ^ static_cast<uint64_t>(r.start));
  h = Mix(h ^ static_cast<uint64_t>(r.end));
  h = Mix(h ^ r.key);
  h = Mix(h ^ bits);
  ++results;
  sum += h;
}

ClosingIndex::ClosingIndex(const std::vector<TimeT>& ts, TimeT max_delay) {
  bool any = false;
  TimeT newest = 0;
  for (size_t i = 0; i < ts.size(); ++i) {
    if (!any || ts[i] > newest) newest = ts[i];
    any = true;
    const TimeT watermark = newest - max_delay;
    if (watermark < 0) continue;
    // Every end not yet covered, up to the new watermark, closes here.
    const uint64_t reach = static_cast<uint64_t>(watermark) + 1;
    if (reach > table_.size()) table_.resize(reach, static_cast<uint32_t>(i));
  }
}

uint32_t BruteForceClosingEvent(const std::vector<TimeT>& ts, TimeT max_delay,
                                TimeT end) {
  for (size_t i = 0; i < ts.size(); ++i) {
    TimeT newest = ts[0];
    for (size_t j = 0; j <= i; ++j) newest = std::max(newest, ts[j]);
    if (newest - max_delay >= end) return static_cast<uint32_t>(i);
  }
  return kNoClosingEvent;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id,parent,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%zu,%u,%s,%llu,%llu\n", i + 1, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  const bool ok = std::ferror(file) == 0;
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench
