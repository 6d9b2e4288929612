#pragma once
// Order statistics for the benchmark's samples.
//
// Latency percentiles interpolate linearly between closest ranks (the
// "inclusive" definition); quartiles follow Python's
// statistics.quantiles(values, n=4) ("exclusive" method), so the spread
// the benchmark reports about itself is the one an outside check
// computes from the same values.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// p-th percentile (0 <= p <= 100) by linear interpolation between the
/// closest ranks. 0 for an empty sample.
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

/// First, second and third quartiles as statistics.quantiles(n=4) gives
/// them. Needs at least two values; one value repeats itself.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// (q3 - q1) / median, the relative spread; 0 when the median is 0.
double relative_iqr(const std::vector<double>& values);

/// Number of samples strictly above the p-th percentile: the evidence a
/// tail percentile rests on (the benchmark reports a tail only with at
/// least ten samples beyond it).
std::size_t samples_beyond(const std::vector<double>& values, double p);

/// A timing summary: median, tail percentile, and the sample count.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;         ///< value at tail_pct
  double tail_pct = 0.0;     ///< the percentile reported as the tail
  std::size_t beyond = 0;    ///< samples above the tail value
};
/// Summarize with the highest of p99.9 / p99 / p95 / p90 / p50 that has at
/// least ten samples beyond it.
Summary summarize(const std::vector<double>& values);

/// Mean of the values from the first to the third quartile (by rank,
/// the middle half). Drops the windows a host stall wrecked, yet moves
/// smoothly as the share of time in one host state grows, where a median
/// of windows jumps once that share passes one half.
double interquartile_mean(std::vector<double> values);

/// Fixed-memory latency histogram: `buckets` linear buckets of
/// `bucket_us`, and an overflow bucket. Used where a per-request sample
/// vector would make the harness's own memory grow with throughput and
/// show up in the measured peak RSS.
class Histogram {
 public:
  Histogram(double bucket_us, std::size_t buckets)
      : bucket_us_(bucket_us), counts_(buckets + 1, 0) {}
  void add(double us);
  void merge(const Histogram& other);
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// p-th percentile, interpolated linearly inside its bucket; the
  /// overflow bucket reads as +infinity.
  [[nodiscard]] double percentile(double p) const;

 private:
  double bucket_us_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// A sample stamped with the time it belongs to (ns since phase start).
struct TimedSample {
  std::int64_t at_ns = 0;
  double value = 0.0;
};

/// The p-th percentile within each `window_ns` window of time, then the
/// median over the windows that hold at least `min_samples` samples
/// (all samples pooled when no window does). On a shared host one stall
/// moves a pooled tail by itself; it moves the median window's tail
/// only when it hits most windows.
double windowed_percentile(const std::vector<TimedSample>& samples,
                           std::int64_t window_ns, double p,
                           std::size_t min_samples);

}  // namespace perfbench
