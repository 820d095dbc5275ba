// Sample statistics of the repository benchmark: the percentile rule,
// failure counting, and the traced run's self-time ladder.
//
// Kept free of any distperm dependency so perfbench_test.cc can check
// each rule on hand-made samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank quantile of an ascending sample: the value at rank
/// ceil(q * n), clamped to [1, n].  NaN for an empty sample.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest rank of percentile `pct`.
inline size_t SamplesBeyond(size_t n, double pct) {
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

/// The highest of 50, 90, 99, 99.9, 99.99 with at least
/// kMinSamplesBeyond samples beyond it; 0 when not even the median is.
inline double HighestSupportedPercentile(size_t n) {
  for (double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, pct) >= kMinSamplesBeyond) return pct;
  }
  return 0.0;
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// How one operation ended.  Everything but kOk is a failure: a wire
/// error code, an admission reject (kUnavailable), delta backpressure
/// (OutOfRange), a timeout, or a broken connection.
enum class Outcome : uint8_t {
  kOk,
  kWireError,
  kUnavailable,
  kBackpressure,
  kTimeout,
  kTransport,
};

/// Attempted/failed tally plus a latency sample in which every failed
/// operation counts as beyond any limit (+infinity).
class LatencyRecorder {
 public:
  void Record(Outcome outcome, double latency_seconds) {
    ++attempted_;
    if (outcome != Outcome::kOk) {
      ++failed_;
      ++by_outcome_[static_cast<size_t>(outcome)];
      latencies_.push_back(std::numeric_limits<double>::infinity());
      return;
    }
    latencies_.push_back(latency_seconds);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t failed_with(Outcome outcome) const {
    return by_outcome_[static_cast<size_t>(outcome)];
  }
  size_t samples() const { return latencies_.size(); }

  /// Nearest-rank quantile in seconds (+infinity when it lands on a
  /// failure).
  double Quantile(double q) const {
    std::vector<double> sorted = latencies_;
    std::sort(sorted.begin(), sorted.end());
    return SortedQuantile(sorted, q);
  }

  /// True when the sample supports reporting percentile `pct`.
  bool Supports(double pct) const {
    return SamplesBeyond(latencies_.size(), pct) >= kMinSamplesBeyond;
  }

  void Merge(const LatencyRecorder& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (size_t i = 0; i < kOutcomes; ++i) by_outcome_[i] += other.by_outcome_[i];
    latencies_.insert(latencies_.end(), other.latencies_.begin(),
                      other.latencies_.end());
  }

 private:
  static constexpr size_t kOutcomes = 6;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t by_outcome_[kOutcomes] = {};
  std::vector<double> latencies_;
};

/// Length of the part of [lo, hi] covered by the union of `intervals`.
inline double Coverage(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [start, stop] : intervals) {
    start = std::max(start, reach);
    stop = std::min(stop, hi);
    if (stop > start) {
      covered += stop - start;
      reach = stop;
    }
  }
  return covered;
}

/// Median durations (seconds) of the traced replay's rungs, outermost
/// first.  `shards` is the part of the QueryEngine::RunBatch span its
/// shard Search spans cover; `metric` is the part of that attributed
/// to Metric::Distance calls.
struct RungMedians {
  double wire = 0.0;
  double codec = 0.0;
  double live = 0.0;
  double engine = 0.0;
  double shards = 0.0;
  double metric = 0.0;
};

/// Self time per layer: each span minus its child span, so the six
/// values telescope to the wire median.
struct SelfTimes {
  double server = 0.0;
  double codec = 0.0;
  double live = 0.0;
  double engine = 0.0;
  double index = 0.0;
  double metric = 0.0;

  double Sum() const { return server + codec + live + engine + index + metric; }
};

inline SelfTimes SubtractChildren(const RungMedians& m) {
  SelfTimes self;
  self.server = m.wire - m.live - m.codec;
  self.codec = m.codec;
  self.live = m.live - m.engine;
  self.engine = m.engine - m.shards;
  self.index = m.shards - m.metric;
  self.metric = m.metric;
  return self;
}

/// True when the self times add up to the wire median (to rounding).
inline bool AddsUp(const SelfTimes& self, double wire) {
  return std::fabs(self.Sum() - wire) <= 1e-9 * std::max(1.0, std::fabs(wire));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
