// Unit tests of the benchmark's own measurement code (harness.h): the
// percentile rule, the heap baseline subtraction behind mem_peak_mb,
// fingerprint order-insensitivity, and closing-event attribution against
// a brute-force scan and a live session. Exits 0 when every check holds.
// Run through test_run.py, or directly after a build:
//   .bench_build/perfbench/perfbench_selftest

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
    }                                                                  \
  } while (0)

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

void TestPercentileRule() {
  // p99 needs 10 samples beyond it: 1000 samples support it exactly.
  EXPECT(SupportedQuantile(0.99, 1000) == 0.99);
  EXPECT(Near(SupportedQuantile(0.99, 100), 0.90, 1e-12));
  EXPECT(Near(SupportedQuantile(0.90, 50), 0.80, 1e-12));
  EXPECT(SupportedQuantile(0.50, 1000) == 0.50);
  // Too few samples for any tail: report the median.
  EXPECT(SupportedQuantile(0.99, 12) == 0.5);

  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  std::shuffle(values.begin(), values.end(), std::mt19937_64(7));
  EXPECT(Percentile(values, 0.99) == 990.0);  // Ten samples beyond.
  EXPECT(Percentile(values, 0.5) == 500.0);
  values.resize(100);
  std::sort(values.begin(), values.end());
  // 100 samples: p99 falls back to p90, which leaves exactly ten beyond.
  const double p = Percentile(values, 0.99);
  EXPECT(std::count_if(values.begin(), values.end(),
                       [p](double v) { return v > p; }) == 10);
  EXPECT(Percentile({}, 0.5) == 0.0);

  LogHistogram hist;
  for (uint64_t v = 1; v <= 100000; ++v) hist.Add(v * 100);
  EXPECT(hist.count() == 100000);
  EXPECT(Near(hist.Percentile(0.99), 9'900'000.0, 1.0 / 64));
  EXPECT(Near(hist.Percentile(0.5), 5'000'000.0, 1.0 / 64));
  LogHistogram small;
  for (uint64_t v = 0; v < 100; ++v) small.Add(v);
  EXPECT(small.Percentile(0.99) == 89.0);  // p90 of 0..99, exact below 64.
  LogHistogram merged;
  merged.Merge(small);
  merged.Merge(small);
  EXPECT(merged.count() == 200);
}

void TestHeapBaseline() {
  EXPECT(PeakMiBAbove(10, 20) == 0.0);
  EXPECT(PeakMiBAbove(3 << 20, 1 << 20) == 2.0);

  // Input generated before the baseline does not count; a transient
  // allocation after it does, even once freed.
  std::vector<char> input(16 << 20, 1);
  const int64_t baseline = HeapLiveBytes();
  ResetHeapPeak();
  {
    std::vector<char> transient(8 << 20, 2);
    EXPECT(HeapLiveBytes() - baseline >= (8 << 20));
  }
  const double mib = PeakMiBAbove(HeapPeakBytes(), baseline);
  EXPECT(mib >= 8.0 && mib < 8.5);
  EXPECT(HeapLiveBytes() - baseline < (1 << 20));
  EXPECT(input[0] == 1);
}

std::vector<fw::WindowResult> SampleResults() {
  std::vector<fw::WindowResult> results;
  for (int op = 0; op < 3; ++op) {
    for (fw::TimeT start = 0; start < 200; start += 20) {
      for (uint32_t key = 0; key < 4; ++key) {
        results.push_back({op, start, start + 20, key,
                           0.25 * static_cast<double>(start + key + op)});
      }
    }
  }
  return results;
}

Fingerprint Fold(const std::vector<fw::WindowResult>& results,
                 uint32_t slot = 0) {
  Fingerprint fp;
  for (const fw::WindowResult& r : results) fp.Fold(slot, r);
  return fp;
}

void TestFingerprint() {
  std::vector<fw::WindowResult> results = SampleResults();
  const Fingerprint base = Fold(results);
  std::vector<fw::WindowResult> shuffled = results;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(3));
  EXPECT(Fold(shuffled) == base);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT(Fold(shuffled) == base);

  std::vector<fw::WindowResult> dropped(results.begin() + 1, results.end());
  EXPECT(Fold(dropped) != base);
  // A duplicate in place of a dropped result keeps the count, not the sum.
  dropped.push_back(results[5]);
  EXPECT(Fold(dropped).results == base.results);
  EXPECT(Fold(dropped) != base);
  std::vector<fw::WindowResult> changed = results;
  changed[7].value = std::nextafter(changed[7].value, 1e9);  // One ulp.
  EXPECT(Fold(changed) != base);
  EXPECT(Fold(results, 1) != base);  // The query slot is part of a result.
}

void TestClosingIndex() {
  for (fw::TimeT max_delay : {0, 1, 4, 16}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      // Disordered with duplicate timestamps: DEBS-like pacing, displaced.
      std::vector<fw::Event> events = fw::ApplyBoundedDisorder(
          fw::GenerateDebsLikeStream(300, 4, seed), 12, seed);
      std::vector<TimeT> ts;
      for (const fw::Event& e : events) ts.push_back(e.timestamp);
      const ClosingIndex index(ts, max_delay);
      const TimeT horizon = *std::max_element(ts.begin(), ts.end()) + 5;
      for (TimeT end = 0; end <= horizon; ++end) {
        const uint32_t expected = BruteForceClosingEvent(ts, max_delay, end);
        if (index.Of(end) != expected) {
          ++g_failures;
          std::fprintf(stderr,
                       "closing event of end %lld (max_delay %lld, seed %llu)"
                       ": %u, brute force %u\n",
                       static_cast<long long>(end),
                       static_cast<long long>(max_delay),
                       static_cast<unsigned long long>(seed), index.Of(end),
                       expected);
        }
      }
    }
  }
}

// A live disordered session never delivers a result before the push of
// its computed closing event.
void TestAttributionOnSession() {
  const fw::TimeT max_delay = 32;
  std::vector<fw::Event> events = fw::ApplyBoundedDisorder(
      fw::GenerateSyntheticStream(20000, 8, 5), max_delay, 5);
  std::vector<TimeT> ts;
  for (const fw::Event& e : events) ts.push_back(e.timestamp);
  const ClosingIndex index(ts, max_delay);
  for (uint32_t shards : {1u, 2u}) {
    fw::StreamSession::Options options;
    options.num_keys = 8;
    options.num_shards = shards;
    options.max_delay = max_delay;
    fw::StreamSession session(options);
    uint64_t pushed = 0, results = 0, early = 0;
    auto added = session.AddQuery(
        fw::Query().Min("v").From("s").PerKey("k").Tumbling(20).Hopping(60,
                                                                         20),
        [&](const fw::WindowResult& r) {
          ++results;
          const uint32_t c = index.Of(r.end);
          if (c != kNoClosingEvent && c >= pushed) ++early;
        });
    EXPECT(added.ok());
    for (const fw::Event& e : events) {
      ++pushed;
      EXPECT(session.Push(e).ok());
    }
    EXPECT(session.Finish().ok());
    EXPECT(results > 1000);
    EXPECT(early == 0);
  }
}

void TestTracer() {
  Tracer tracer(2);
  const uint32_t a = tracer.Open("a", 0);
  const uint32_t b = tracer.Add("b", a, 5, 9);
  tracer.Close(a);
  EXPECT(a == 1 && b == 2);
  EXPECT(tracer.Open("c", a) == 0);  // Over the cap: dropped.
  EXPECT(tracer.dropped() == 1);
  EXPECT(tracer.size() == 2);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestHeapBaseline();
  perfbench::TestFingerprint();
  perfbench::TestClosingIndex();
  perfbench::TestAttributionOnSession();
  perfbench::TestTracer();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
