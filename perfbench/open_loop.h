// Open-loop load generation: a send schedule drawn from the workload
// seed, a sender loop that fires each operation when it is due no
// matter how many are still outstanding, and due-time accounting.
//
// Latency is measured from when an operation was due, not from when it
// was sent, so a stall anywhere (server, socket, or the generator
// itself) is charged to every operation that waited behind it.  How
// late the sender ran is reported separately as the lag; a run whose
// lag p99 exceeds the limit fell behind its schedule and is invalid.

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

/// SplitMix64: the benchmark's own seeded stream for schedules and
/// operation mixes, independent of the library's generators.
class SeededStream {
 public:
  explicit SeededStream(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Poisson arrivals: `rate` operations per second on average for
/// `seconds`, with exponential gaps drawn from the seed — independent
/// users, whose bursts queue up behind each other.  Queueing behind
/// those bursts, which the seed fixes, sets most of the latency tail,
/// so p99 depends less on scheduler noise than under evenly paced
/// arrivals.
inline std::vector<double> PoissonSchedule(double rate, double seconds,
                                           uint64_t seed) {
  SeededStream stream(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t -= std::log(1.0 - stream.Uniform()) / rate;
    if (t >= seconds) return due;
    due.push_back(t);
  }
}

/// steady_clock in seconds.
struct SteadyClock {
  double Now() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void SleepUntil(double t) const {
    const double wait = t - Now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
  }
};

/// Per-operation record, in seconds since the loop started.  `sent` and
/// `done` are NaN until the event happens.
struct OpTiming {
  double due = 0.0;
  double sent = std::numeric_limits<double>::quiet_NaN();
  double done = std::numeric_limits<double>::quiet_NaN();
  Outcome outcome = Outcome::kTimeout;
};

class OpenLoop {
 public:
  explicit OpenLoop(const std::vector<double>& due) : ops_(due.size()) {
    for (size_t i = 0; i < due.size(); ++i) ops_[i].due = due[i];
  }

  /// Sends every operation when it is due: sleeps until op i's due
  /// time, stamps its send time, and calls send(i).  Never waits for
  /// responses; send(i) should only write the request.
  template <typename Clock, typename Send>
  void Run(const Clock& clock, Send&& send) {
    start_ = clock.Now();
    for (size_t i = 0; i < ops_.size(); ++i) {
      clock.SleepUntil(start_ + ops_[i].due);
      ops_[i].sent = clock.Now() - start_;
      send(i);
    }
  }

  /// Records op i's completion at absolute time `now`.  Each op is
  /// completed by exactly one thread.
  void Complete(size_t i, Outcome outcome, double now) {
    ops_[i].done = now - start_;
    ops_[i].outcome = outcome;
  }

  size_t size() const { return ops_.size(); }
  const OpTiming& op(size_t i) const { return ops_[i]; }
  double start() const { return start_; }

  /// Due-time latency of op i (done - due); +infinity if it never
  /// completed.
  double Latency(size_t i) const {
    const OpTiming& op = ops_[i];
    if (std::isnan(op.done)) return std::numeric_limits<double>::infinity();
    return op.done - op.due;
  }

  /// How late op i was sent; +infinity if it never was.
  double Lag(size_t i) const {
    const OpTiming& op = ops_[i];
    if (std::isnan(op.sent)) return std::numeric_limits<double>::infinity();
    return op.sent - op.due;
  }

  /// Adds every op accepted by `filter(i)` to `recorder`: its outcome
  /// and due-time latency.
  template <typename Filter>
  void Collect(Filter&& filter, LatencyRecorder* recorder) const {
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (!filter(i)) continue;
      const Outcome outcome =
          std::isnan(ops_[i].done) ? Outcome::kTimeout : ops_[i].outcome;
      recorder->Record(outcome, Latency(i));
    }
  }

  /// Quantile of the send lag over every op.
  double LagQuantile(double q) const {
    std::vector<double> lags;
    lags.reserve(ops_.size());
    for (size_t i = 0; i < ops_.size(); ++i) lags.push_back(Lag(i));
    std::sort(lags.begin(), lags.end());
    return SortedQuantile(lags, q);
  }

  /// True when the generator fell behind: its lag p99 exceeds `limit`.
  bool FellBehind(double limit) const {
    return !ops_.empty() && !(LagQuantile(0.99) <= limit);
  }

 private:
  std::vector<OpTiming> ops_;
  double start_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
