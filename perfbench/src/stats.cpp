#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Failed requests enter as +inf; never interpolate into inf - inf.
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  if (values.size() == 1) {
    q.q1 = q.q2 = q.q3 = values[0];
    return q;
  }
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method='exclusive': m = n + 1, and cut point i
  // interpolates between data[j - 1] and data[j] with j = i * m // 4.
  const auto n = static_cast<long>(values.size());
  const long m = n + 1;
  double cuts[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0;
  }
  q.q1 = cuts[0];
  q.q2 = cuts[1];
  q.q3 = cuts[2];
  return q;
}

double relative_iqr(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  return q.q2 != 0.0 ? (q.q3 - q.q1) / q.q2 : 0.0;
}

std::size_t samples_beyond(const std::vector<double>& values, double p) {
  const double cut = percentile(values, p);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  s.p50 = percentile(values, 50.0);
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    // Ten samples beyond p need n * (1 - p/100) >= 10.
    if (static_cast<double>(values.size()) * (100.0 - p) / 100.0 >= 10.0 ||
        p == 50.0) {
      s.tail_pct = p;
      s.tail = percentile(values, p);
      s.beyond = samples_beyond(values, p);
      break;
    }
  }
  return s;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t lo = n / 4;
  const std::size_t hi = n - n / 4;  // exclusive
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

void Histogram::add(double us) {
  const double slot = us / bucket_us_;
  const std::size_t last = counts_.size() - 1;
  const std::size_t i =
      slot >= 0.0 && slot < static_cast<double>(last)
          ? static_cast<std::size_t>(slot)
          : (slot < 0.0 ? 0 : last);
  ++counts_[i];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total_);
  double below = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (c > 0.0 && below + c >= rank) {
      if (i == counts_.size() - 1) {
        return std::numeric_limits<double>::infinity();
      }
      return (static_cast<double>(i) + (rank - below) / c) * bucket_us_;
    }
    below += c;
  }
  return std::numeric_limits<double>::infinity();
}

double windowed_percentile(const std::vector<TimedSample>& samples,
                           std::int64_t window_ns, double p,
                           std::size_t min_samples) {
  std::map<std::int64_t, std::vector<double>> windows;
  std::vector<double> pooled;
  pooled.reserve(samples.size());
  for (const TimedSample& s : samples) {
    windows[s.at_ns / window_ns].push_back(s.value);
    pooled.push_back(s.value);
  }
  std::vector<double> per_window;
  for (auto& [index, values] : windows) {
    if (values.size() >= min_samples) {
      per_window.push_back(percentile(std::move(values), p));
    }
  }
  return per_window.empty() ? percentile(std::move(pooled), p)
                            : median(std::move(per_window));
}

}  // namespace perfbench
