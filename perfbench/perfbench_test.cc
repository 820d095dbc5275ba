// The benchmark's own tests: the percentile rule, failure counting,
// self-time subtraction, and due-time accounting under an injected
// stall.  Run: <build>/perfbench_test (exits non-zero on a failure).

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "open_loop.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                    \
    }                                                                \
  } while (0)

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void TestPercentileRule() {
  // p99 needs 1000 samples: rank 990 leaves exactly ten beyond it.
  EXPECT(HighestSupportedPercentile(1000) == 99.0);
  EXPECT(HighestSupportedPercentile(999) == 90.0);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  EXPECT(HighestSupportedPercentile(100000) == 99.99);
  EXPECT(HighestSupportedPercentile(20) == 50.0);
  EXPECT(HighestSupportedPercentile(19) == 0.0);
  EXPECT(SamplesBeyond(1000, 99.0) == 10);
  EXPECT(SamplesBeyond(999, 99.0) == 9);

  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  EXPECT(SortedQuantile(sorted, 0.5) == 500);
  EXPECT(SortedQuantile(sorted, 0.99) == 990);
  EXPECT(SortedQuantile(sorted, 1.0) == 1000);
  EXPECT(SortedQuantile(sorted, 0.0) == 1);
  EXPECT(std::isnan(SortedQuantile({}, 0.5)));
}

void TestFailureCounting() {
  LatencyRecorder recorder;
  for (int i = 0; i < 97; ++i) recorder.Record(Outcome::kOk, 0.001 * (i + 1));
  recorder.Record(Outcome::kUnavailable, 0.0001);
  recorder.Record(Outcome::kBackpressure, 0.0001);
  recorder.Record(Outcome::kTimeout, 0.0001);
  EXPECT(recorder.attempted() == 100);
  EXPECT(recorder.failed() == 3);
  EXPECT(recorder.failed_with(Outcome::kUnavailable) == 1);
  EXPECT(recorder.failed_with(Outcome::kBackpressure) == 1);
  EXPECT(recorder.failed_with(Outcome::kTimeout) == 1);
  EXPECT(recorder.failed_with(Outcome::kWireError) == 0);
  // A failure is beyond every limit: fast failures must not pull the
  // tail down; with 3% failed, p98 and p99 land on failures.
  EXPECT(std::isinf(recorder.Quantile(0.99)));
  EXPECT(std::isinf(recorder.Quantile(0.98)));
  EXPECT(Near(recorder.Quantile(0.97), 0.097));
  EXPECT(Near(recorder.Quantile(0.5), 0.050));

  LatencyRecorder more;
  more.Record(Outcome::kTransport, 0.0);
  recorder.Merge(more);
  EXPECT(recorder.attempted() == 101);
  EXPECT(recorder.failed() == 4);
  EXPECT(recorder.failed_with(Outcome::kTransport) == 1);
}

void TestSelfTimeSubtraction() {
  // Coverage: union of overlapping and disjoint intervals, clipped.
  EXPECT(Near(Coverage({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4.0));
  EXPECT(Near(Coverage({{0, 2}, {1, 3}, {5, 6}}, 1.5, 5.5), 2.0));
  EXPECT(Near(Coverage({}, 0, 1), 0.0));
  // Two parallel shard spans inside one engine span cover it once.
  EXPECT(Near(Coverage({{1, 4}, {1, 4}, {2, 5}}, 0, 6), 4.0));

  RungMedians m;
  m.wire = 100;
  m.codec = 3;
  m.live = 80;
  m.engine = 70;
  m.shards = 60;
  m.metric = 15;
  const SelfTimes self = SubtractChildren(m);
  EXPECT(Near(self.server, 17));
  EXPECT(Near(self.codec, 3));
  EXPECT(Near(self.live, 10));
  EXPECT(Near(self.engine, 10));
  EXPECT(Near(self.index, 45));
  EXPECT(Near(self.metric, 15));
  EXPECT(AddsUp(self, m.wire));
  SelfTimes broken = self;
  broken.index += 1;
  EXPECT(!AddsUp(broken, m.wire));
}

/// A clock that only moves when told to: SleepUntil jumps forward,
/// and the test advances it to inject a stall.
struct FakeClock {
  mutable double now = 1000.0;
  double Now() const { return now; }
  void SleepUntil(double t) const {
    if (t > now) now = t;
  }
};

void TestDueTimeAccounting() {
  // 100 ops due every 1 ms; each answered 0.2 ms after it is sent.
  std::vector<double> due;
  for (int i = 0; i < 100; ++i) due.push_back(0.001 * i);

  FakeClock clock;
  OpenLoop steady(due);
  steady.Run(clock, [&](size_t i) {
    steady.Complete(i, Outcome::kOk, clock.Now() + 0.0002);
  });
  EXPECT(Near(steady.Latency(50), 0.0002));
  EXPECT(Near(steady.LagQuantile(0.99), 0.0));
  EXPECT(!steady.FellBehind(0.020));

  // The send of op 10 stalls for 25 ms.  Ops 11..34 go out late, and
  // their latency counts from when they were due, not when sent.
  FakeClock stalled_clock;
  OpenLoop stalled(due);
  stalled.Run(stalled_clock, [&](size_t i) {
    if (i == 10) stalled_clock.now += 0.025;
    stalled.Complete(i, Outcome::kOk, stalled_clock.Now() + 0.0002);
  });
  EXPECT(Near(stalled.Lag(10), 0.0));
  EXPECT(Near(stalled.Latency(10), 0.0252));
  EXPECT(Near(stalled.Lag(11), 0.024));
  EXPECT(Near(stalled.Latency(11), 0.0242));
  EXPECT(Near(stalled.Latency(20), 0.0152));
  EXPECT(Near(stalled.Latency(35), 0.0002));  // caught up
  EXPECT(Near(stalled.LagQuantile(0.99), 0.023));
  EXPECT(stalled.FellBehind(0.020));
  EXPECT(!stalled.FellBehind(0.030));

  LatencyRecorder recorder;
  stalled.Collect([](size_t) { return true; }, &recorder);
  EXPECT(recorder.attempted() == 100);
  EXPECT(recorder.failed() == 0);
  EXPECT(recorder.Quantile(0.99) > 0.02);

  // An op that never completes is a timeout with infinite latency.
  FakeClock lossy_clock;
  OpenLoop lossy(due);
  lossy.Run(lossy_clock, [&](size_t i) {
    if (i != 7) lossy.Complete(i, Outcome::kOk, lossy_clock.Now());
  });
  LatencyRecorder lost;
  lossy.Collect([](size_t) { return true; }, &lost);
  EXPECT(lost.failed() == 1);
  EXPECT(lost.failed_with(Outcome::kTimeout) == 1);
  EXPECT(std::isinf(lossy.Latency(7)));
}

void TestPoissonSchedule() {
  const std::vector<double> a = PoissonSchedule(100.0, 100.0, 42);
  const std::vector<double> b = PoissonSchedule(100.0, 100.0, 42);
  const std::vector<double> c = PoissonSchedule(100.0, 100.0, 43);
  EXPECT(a == b);
  EXPECT(a != c);
  // 10000 arrivals expected; the count is Poisson (sd 100).
  EXPECT(a.size() > 9500 && a.size() < 10500);
  for (size_t i = 1; i < a.size(); ++i) EXPECT(a[i] > a[i - 1]);
  EXPECT(!a.empty() && a.front() > 0.0 && a.back() < 100.0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestFailureCounting();
  perfbench::TestSelfTimeSubtraction();
  perfbench::TestDueTimeAccounting();
  perfbench::TestPoissonSchedule();
  if (perfbench::failures != 0) {
    std::printf("%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
